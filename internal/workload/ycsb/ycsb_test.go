package ycsb

import (
	"testing"

	"sihtm/internal/workload/engine"
)

func TestSpecs(t *testing.T) {
	for _, w := range []Workload{A, B, C} {
		spec, err := Spec(Config{Workload: w, Keys: 1000, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: invalid spec: %v", w, err)
		}
		if spec.Dist.Kind != engine.DistZipfian || spec.Dist.Theta != DefaultTheta {
			t.Errorf("%s: default distribution %v, want zipf(%v)", w, spec.Dist, DefaultTheta)
		}
	}
	if _, err := Spec(Config{Workload: "z", Keys: 10}); err == nil {
		t.Error("unknown workload accepted")
	}
}

// C must be entirely read-only — the property that routes all its
// transactions through SI-HTM's fast path.
func TestCIsReadOnly(t *testing.T) {
	mix, err := C.Mix()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mix {
		if !m.Op.Kind().ReadOnly() {
			t.Errorf("C contains writing op %s", m.Op)
		}
	}
}

func TestConfigOverrides(t *testing.T) {
	spec, err := Spec(Config{Workload: B, Keys: 100, Theta: 0.5, OpsPerTx: 4, ScanLen: 9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dist.Theta != 0.5 || spec.OpsPerTxMin != 4 || spec.ScanLen != 9 {
		t.Errorf("overrides lost: %+v", spec)
	}
	spec, err = Spec(Config{Workload: A, Keys: 100, UniformKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Dist.Kind != engine.DistUniform {
		t.Errorf("UniformKeys ignored: %+v", spec.Dist)
	}
}
