package main

import (
	"strings"
	"testing"

	"sihtm/internal/wire"
)

// leaderStats is the STATS reply of a durable ycsb-a leader at ci scale
// with four shards whose base image has the given digest.
func leaderStats(digest string) wire.ServerStats {
	return wire.ServerStats{Durable: true, Scenario: "ycsb-a", Scale: "ci", Shards: 4, BaseDigest: digest}
}

func TestFollowableMatchingBuild(t *testing.T) {
	if err := followable("L", leaderStats("00000000000000aa"), "ycsb-a", "ci", 4, "00000000000000aa"); err != nil {
		t.Fatal(err)
	}
}

// A leader whose base image digest differs has its log written over a
// heap laid out differently: the follower must refuse it, naming both.
func TestFollowableRefusesMismatchedBaseDigest(t *testing.T) {
	err := followable("L", leaderStats("00000000000000bb"), "ycsb-a", "ci", 4, "00000000000000aa")
	if err == nil || !strings.Contains(err.Error(), "00000000000000bb") || !strings.Contains(err.Error(), "00000000000000aa") {
		t.Fatalf("followable = %v, want a refusal naming both digests", err)
	}
}

// A leader that reports no digest (a build from before digests) cannot
// be checked: the follower must refuse it, naming its own.
func TestFollowableRefusesMissingBaseDigest(t *testing.T) {
	err := followable("L", leaderStats(""), "ycsb-a", "ci", 4, "00000000000000aa")
	if err == nil || !strings.Contains(err.Error(), "no base image digest recorded") || !strings.Contains(err.Error(), "00000000000000aa") {
		t.Fatalf("followable = %v, want a refusal naming this follower's digest", err)
	}
}
