package exp

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata golden files with current output")

// Regenerate the goldens (only after an intentional behavior change)
// with:
//
//	go test ./internal/exp -update-golden

// fingerprintGolden holds one "<experiment> <fingerprint>" line per
// experiment, pinned by that experiment's shape test.
const fingerprintGolden = "testdata/fingerprints.golden"

// checkReport fails t on every shape violation of rep and on a
// fingerprint that differs from name's golden line, and returns the
// printed report.
func checkReport(t *testing.T, name string, rep Report) string {
	t.Helper()
	for _, v := range rep.ShapeCheck() {
		t.Error(v)
	}
	want := fmt.Sprintf("%s %016x", name, rep.digest())
	data, err := os.ReadFile(fingerprintGolden)
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	i := 0
	for i < len(lines) && !strings.HasPrefix(lines[i], name+" ") {
		i++
	}
	switch {
	case i < len(lines) && lines[i] == want:
	case *updateGolden:
		if i == len(lines) {
			lines = append(lines, "")
		}
		lines[i] = want
		out := strings.TrimSpace(strings.Join(lines, "\n")) + "\n"
		if err := os.WriteFile(fingerprintGolden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	case i == len(lines):
		t.Errorf("%s has no line in %s", name, fingerprintGolden)
	default:
		t.Errorf("wire digest diverged from golden:\n got: %s\nwant: %s", want, lines[i])
	}
	var sb strings.Builder
	rep.Print(&sb)
	return sb.String()
}

// TestFig5Golden pins the exact output of a small Figure 5 run at a
// fixed seed against a golden file generated before the transport
// refactor. The simulated substrate promises event-for-event
// determinism; any change to protocol logic, the scheduler, RNG
// consumption order, or the transport/simnet adapter that shifts even
// one event shows up here as a byte-level diff.
func TestFig5Golden(t *testing.T) {
	res, err := Fig5(Fig5Config{
		Seed:     42,
		N:        60,
		NATRatio: 0.7,
		Runtime:  2 * time.Minute,
		PiValues: []int{0, 2},
		Parallel: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Print(&sb)
	got := sb.String()

	const path = "testdata/fig5_seed42.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("fig5 output diverged from golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
	t.Fatal("fig5 output diverged from golden (length mismatch)")
}
