package loadgen

import (
	"math"
	"testing"
)

// TestGapMeans: at a fixed seed, 100k Poisson gaps average within 2 % of
// the connection's mean gap, and every uniform gap is the mean exactly.
func TestGapMeans(t *testing.T) {
	const n = 100_000
	for _, proc := range []string{"poisson", "uniform"} {
		g := &gen{cfg: Config{Conns: 4, Arrival: Arrival{Process: proc, Rate: 20_000}, Seed: 1}}
		c := newLoadConn(g, nil, 2)
		sum := 0.0
		for i := 0; i < n; i++ {
			d := c.gap()
			if proc == "uniform" && d != c.meanNs {
				t.Fatalf("uniform gap %d = %g ns, want %g", i, d, c.meanNs)
			}
			sum += d
		}
		if mean := sum / n; math.Abs(mean-c.meanNs) > 0.02*c.meanNs {
			t.Errorf("%s: mean of %d gaps = %g ns, want %g ± 2 %%", proc, n, mean, c.meanNs)
		}
	}
}
