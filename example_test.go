package sihtm_test

import (
	"fmt"
	"sync"

	"sihtm"
)

// The Examples below are the package's demonstrations, checked by go
// test. Every printed figure is a count that the program's construction
// fixes: the interleavings that matter are forced inside the transaction
// bodies, so no output depends on how the host schedules goroutines.

// Concurrent update transactions on one shared counter lose no
// increment, and a read-only scan of 1000 lines, nearly 16× the TMCAM,
// runs uninstrumented on the read-only path.
func Example() {
	rt := sihtm.New(sihtm.Config{HeapLines: 1 << 12})
	x := rt.Heap().AllocLine()
	array := make([]sihtm.Addr, 1000)
	for i := range array {
		array[i] = rt.Heap().AllocLine()
		rt.Heap().Store(array[i], uint64(i))
	}

	const threads = 4
	sys := rt.NewSIHTM(threads)
	sums := make([]uint64, threads)
	var wg sync.WaitGroup
	for id := 0; id < threads; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				sys.Atomic(id, sihtm.KindUpdate, func(ops sihtm.Ops) {
					ops.Write(x, ops.Read(x)+1)
				})
			}
			sys.Atomic(id, sihtm.KindReadOnly, func(ops sihtm.Ops) {
				sums[id] = 0
				for _, a := range array {
					sums[id] += ops.Read(a)
				}
			})
		}(id)
	}
	wg.Wait()

	s := sys.Collector().Snapshot()
	fmt.Println("counter:", rt.Heap().Load(x))
	fmt.Println("scan sums:", sums)
	fmt.Println("commits:", s.Commits, "read-only:", s.CommitsRO)
	// Output:
	// counter: 2000
	// scan sums: [499500 499500 499500 499500]
	// commits: 2004 read-only: 4
}

// Two accounts share an overdraft rule: a withdrawal of 150 is allowed
// while the joint balance covers it, so the sum of the two balances must
// never go negative. Each round runs two withdrawals, one per account,
// that both read both balances before either writes. Snapshot isolation
// lets both commit, the write skew of §2.1, in every round. Promoting the
// read of the other account puts it in the write set, so the two
// withdrawals conflict on a line and only one of them withdraws.
func ExamplePromoteRead() {
	const rounds = 20
	fmt.Println("plain reads, rule broken in", overdrafts(false, rounds), "of", rounds, "rounds")
	fmt.Println("promoted reads, rule broken in", overdrafts(true, rounds), "of", rounds, "rounds")
	// Output:
	// plain reads, rule broken in 20 of 20 rounds
	// promoted reads, rule broken in 0 of 20 rounds
}

// overdrafts runs the bank rounds under SI-HTM and counts the rounds
// that end with a negative joint balance.
func overdrafts(promote bool, rounds int) int {
	const balance, withdrawal = 100, 150
	rt := sihtm.New(sihtm.Config{HeapLines: 1 << 8})
	sys := rt.NewSIHTM(2)
	accounts := [2]sihtm.Addr{rt.Heap().AllocLine(), rt.Heap().AllocLine()}

	broken := 0
	for round := 0; round < rounds; round++ {
		for _, a := range accounts {
			rt.Heap().Store(a, balance)
		}
		read := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		var wg sync.WaitGroup
		for id := 0; id < 2; id++ {
			own, other := accounts[id], accounts[1-id]
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				// The first attempt to get past its reads waits there for
				// the peer's; a retry goes straight on, so an abort cannot
				// leave the peer waiting.
				barrier := sync.OnceFunc(func() { close(read[id]); <-read[1-id] })
				sys.Atomic(id, sihtm.KindUpdate, func(ops sihtm.Ops) {
					mine := int64(ops.Read(own))
					var theirs int64
					if promote {
						theirs = int64(sihtm.PromoteRead(ops, other))
					} else {
						theirs = int64(ops.Read(other))
					}
					barrier()
					if mine+theirs >= withdrawal {
						ops.Write(own, uint64(mine-withdrawal))
					}
				})
			}(id)
		}
		wg.Wait()
		if int64(rt.Heap().Load(accounts[0]))+int64(rt.Heap().Load(accounts[1])) < 0 {
			broken++
		}
	}
	return broken
}

// Fig. 6 in miniature: a chained key-value store whose lookups walk 100
// nodes, past the 64-line TMCAM. Plain HTM tracks each node it reads, so
// every lookup and every update overflows the buffer twice (the abort is
// persistent, so the second one sends it to the global lock) and commits
// on the serial fall-back. SI-HTM's reads are untracked: the lookups take
// the read-only path and each update tracks only the line it writes. One
// worker runs every transaction, so every count is exact.
func Example_kvstore() {
	for _, system := range []string{"htm", "si-htm"} {
		rt := sihtm.New(sihtm.Config{HeapLines: 1 << 8})
		var sys sihtm.System
		if system == "htm" {
			sys = rt.NewHTM(1)
		} else {
			sys = rt.NewSIHTM(1)
		}
		// One chain of nodes [key, value, next]; key 0, inserted first,
		// ends up at the tail.
		head := rt.Heap().AllocLine()
		var tail sihtm.Addr
		for key := uint64(0); key < 100; key++ {
			node := rt.Heap().AllocLine()
			rt.Heap().Store(node, key)
			rt.Heap().Store(node+2, rt.Heap().Load(head))
			rt.Heap().Store(head, uint64(node))
			if key == 0 {
				tail = node
			}
		}
		find := func(ops sihtm.Ops, key uint64) sihtm.Addr {
			node := sihtm.Addr(ops.Read(head))
			for ops.Read(node) != key {
				node = sihtm.Addr(ops.Read(node + 2))
			}
			return node
		}
		for i := 0; i < 10; i++ {
			sys.Atomic(0, sihtm.KindReadOnly, func(ops sihtm.Ops) {
				_ = ops.Read(find(ops, 0) + 1)
			})
			sys.Atomic(0, sihtm.KindUpdate, func(ops sihtm.Ops) {
				node := find(ops, 0)
				ops.Write(node+1, ops.Read(node+1)+1)
			})
		}
		s := sys.Collector().Snapshot()
		fmt.Printf("%-6s value %d, commits %d, capacity aborts %d, fall-backs %d\n",
			sys.Name(), rt.Heap().Load(tail+1), s.Commits, s.Aborts[sihtm.AbortCapacity], s.Fallbacks)
	}
	// Output:
	// htm    value 10, commits 20, capacity aborts 40, fall-backs 20
	// si-htm value 10, commits 20, capacity aborts 0, fall-backs 0
}

// §2.2: SMT siblings share their core's TMCAM. Two transactions each
// read 40 private lines, so no data conflicts, and each overlaps the
// other's footprint: the first reads its lines and waits until the second
// has read its own. Spread over two cores, each footprint fits its core's
// 64 lines. Stacked on one core as SMT siblings, plain HTM's two tracked
// footprints need 80 lines, so the second overflows twice and falls back,
// and its lock acquisition kills the first, which retries alone. SI-HTM
// tracks only the one line each writes and never notices the sharing.
func Example_smtScaling() {
	const rounds, lines = 5, 40
	for _, system := range []string{"htm", "si-htm"} {
		for _, p := range []struct {
			name           string
			cores, smtWays int
		}{{"spread", 2, 1}, {"stacked", 1, 2}} {
			rt := sihtm.New(sihtm.Config{Cores: p.cores, SMTWays: p.smtWays, HeapLines: 1 << 8})
			var sys sihtm.System
			if system == "htm" {
				sys = rt.NewHTM(2)
			} else {
				sys = rt.NewSIHTM(2)
			}
			var arrays [2][lines]sihtm.Addr
			var outs [2]sihtm.Addr
			for t := range arrays {
				for i := range arrays[t] {
					arrays[t][i] = rt.Heap().AllocLine()
				}
				outs[t] = rt.Heap().AllocLine()
			}
			for round := 0; round < rounds; round++ {
				first, second := make(chan struct{}), make(chan struct{})
				// Thread 0 holds its footprint until thread 1 has read;
				// each step runs once, so a retry or the fall-back goes
				// straight on.
				after := [2]func(){
					sync.OnceFunc(func() { close(first); <-second }),
					sync.OnceFunc(func() { close(second) }),
				}
				var wg sync.WaitGroup
				for id := 0; id < 2; id++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						if id == 1 {
							<-first
						}
						sys.Atomic(id, sihtm.KindUpdate, func(ops sihtm.Ops) {
							var sum uint64
							for _, a := range arrays[id] {
								sum += ops.Read(a)
							}
							after[id]()
							ops.Write(outs[id], sum+1)
						})
					}(id)
				}
				wg.Wait()
			}
			s := sys.Collector().Snapshot()
			fmt.Printf("%-6s %-7s commits %d, capacity aborts %d, fall-backs %d\n",
				sys.Name(), p.name, s.Commits, s.Aborts[sihtm.AbortCapacity], s.Fallbacks)
		}
	}
	// Output:
	// htm    spread  commits 10, capacity aborts 0, fall-backs 0
	// htm    stacked commits 10, capacity aborts 10, fall-backs 5
	// si-htm spread  commits 10, capacity aborts 0, fall-backs 0
	// si-htm stacked commits 10, capacity aborts 0, fall-backs 0
}
