package main

import "testing"

// Every workload of the repository's BENCHMARK.json has its settings in
// layers.json, and each class's fixed tail percentile is the one the
// ten-samples rule gives for its expected sample count per slice.
func TestConfigClassesFollowTailRule(t *testing.T) {
	cfg, err := loadConfig("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range cfg.Workloads {
		for _, class := range []string{"fpras", "exact", "write"} {
			c, ok := w.Classes[class]
			if !ok || c.LimitMS <= 0 || c.TailPct != tailPercentile(c.Expected) {
				t.Errorf("%s/%s: limit %v, tail p%v, but the rule gives p%v for %d expected samples per slice",
					w.Name, class, c.LimitMS, c.TailPct, tailPercentile(c.Expected), c.Expected)
			}
		}
	}
}
