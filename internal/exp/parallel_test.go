package exp

import (
	"reflect"
	"testing"
	"time"
)

// fig5TestConfig is a small Fig5 setup used by the determinism test and
// the harness benchmark: four independent runs, enough nodes to exercise
// the full stack.
func fig5TestConfig(parallel int) Fig5Config {
	return Fig5Config{
		Seed:     71,
		N:        120,
		Runtime:  4 * time.Minute,
		PiValues: []int{0, 1, 2, 3},
		Parallel: parallel,
	}
}

// TestParallelMatchesSequential is the harness's core guarantee: each
// (config, seed) run owns a private Sim and a scheduling-independent
// key-pool view, so running the same experiment with 1 worker and with
// several workers must produce identical per-run results, in the same
// order.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := Fig5(fig5TestConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig5(fig5TestConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) != len(par.Rows) {
		t.Fatalf("sequential %d results, parallel %d", len(seq.Rows), len(par.Rows))
	}
	for i := range seq.Rows {
		// The sequential path draws keys from the shared process-wide
		// pool (whose cursor depends on test order), the parallel path
		// from per-run views — but key assignment must not influence
		// results, so everything measured has to match exactly.
		if !reflect.DeepEqual(seq.Rows[i], par.Rows[i]) {
			t.Errorf("run %d (Pi=%d): parallel result differs from sequential", i, seq.Rows[i].Pi)
		}
	}
	if seq.Fingerprint != par.Fingerprint {
		t.Errorf("wire digest %016x at 1 worker, %016x at 3", seq.Fingerprint, par.Fingerprint)
	}
}

// TestBenchSinkRecordsEveryRun checks the bench log sees one stat per
// simulation run with merged CPU meters, regardless of worker count.
func TestBenchSinkRecordsEveryRun(t *testing.T) {
	old := BenchSink
	defer func() { BenchSink = old }()
	BenchSink = &BenchLog{}

	cfg := fig5TestConfig(2)
	cfg.PiValues = []int{0, 2}
	if _, err := Fig5(cfg); err != nil {
		t.Fatal(err)
	}
	runs := BenchSink.Runs()
	if len(runs) != 2 {
		t.Fatalf("recorded %d runs, want 2", len(runs))
	}
	// Runs() sorts by name, so the order is pi=0, pi=2.
	for i, want := range []string{"fig5/pi=0", "fig5/pi=2"} {
		if runs[i].Name != want {
			t.Errorf("run %d name = %q, want %q", i, runs[i].Name, want)
		}
		if runs[i].Events == 0 {
			t.Errorf("%s: no events recorded", want)
		}
		if runs[i].VirtualSec == 0 {
			t.Errorf("%s: no virtual time recorded", want)
		}
	}
}

// BenchmarkParallelExpHarness times a full Fig5 sweep through the
// worker pool at GOMAXPROCS workers. Compare with -parallel 1 via
// BenchmarkSequentialExpHarness to see the multi-core speedup; on a
// single-core machine the two are expected to tie.
func BenchmarkParallelExpHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig5(fig5TestConfig(0)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialExpHarness is the -parallel 1 baseline.
func BenchmarkSequentialExpHarness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Fig5(fig5TestConfig(1)); err != nil {
			b.Fatal(err)
		}
	}
}
