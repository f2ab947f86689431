package exp

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"whisper/internal/ppss"
)

// The experiment tests run every figure/table at reduced scale and
// assert the paper's qualitative findings (the shape checks) hold and
// the wire digest matches its golden. They are the cross-module
// integration tests of the whole repository.

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(Fig5Config{Seed: 61, N: 250, Runtime: 6 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("results = %d", len(res.Rows))
	}
	if !strings.Contains(checkReport(t, "fig5", res), "in-degree P-nodes (Pi=3)") {
		t.Error("missing CDF series in output")
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(Fig6Config{
		Seed: 62, N: 250,
		Warmup: 4 * time.Minute, Measure: 4 * time.Minute,
		Ratios: []float64{0.7}, PiValues: []int{1, 3}, KeyBlobSize: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // unbiased, unbiased+KS, Pi=1+KS, Pi=3+KS
		t.Fatalf("rows = %d", len(res.Rows))
	}
	checkReport(t, "fig6", res)
}

func TestTable1Shape(t *testing.T) {
	res, err := Table1(Table1Config{
		Seed: 63, N: 250, Groups: 5, Rates: []float64{0, 5},
		Warmup: 8 * time.Minute, Window: 8 * time.Minute,
		PPSS: ppss.Config{KeyBlobSize: 256}, KeyBlob: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "table1", res)
	rows := res.Rows
	if rows[0].SuccessPct < 99 {
		t.Errorf("no-churn success %.1f%%, paper reports 100%%", rows[0].SuccessPct)
	}
	if rows[1].SuccessPct >= rows[0].SuccessPct {
		t.Error("churn did not reduce first-try success")
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := Fig7Config{
		Seed: 64, N: 150, Groups: 3, Exchanges: 200,
		Warmup: 8 * time.Minute, MaxRun: 15 * time.Minute,
		PPSS: ppss.Config{KeyBlobSize: 256}, KeyBlob: 256,
	}
	planetLab := cfg
	planetLab.Env = PlanetLab
	res, err := Fig7(cfg, planetLab)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "fig7", res)
	// Environment separation: the cluster is much faster.
	if res.Rows[0].RTTMedian*10 > res.Rows[1].RTTMedian {
		t.Errorf("cluster rtt %.4fs not ≪ planetlab rtt %.4fs",
			res.Rows[0].RTTMedian, res.Rows[1].RTTMedian)
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := Table2(Table2Config{
		Seed: 65, N: 200, Groups: 4, Cycles: 3,
		Warmup: 8 * time.Minute,
		PPSS:   ppss.Config{KeyBlobSize: 256}, KeyBlob: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "table2", res)
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(Fig8Config{
		Seed: 66, N: 100, Groups: 24, GroupsPerNode: []int{1, 4},
		Warmup: 6 * time.Minute, Measure: 6 * time.Minute,
		PPSS: ppss.Config{KeyBlobSize: 256}, KeyBlob: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "fig8", res)
	// Roughly linear growth: 4 groups should cost noticeably more than 1.
	if rows := res.Rows; rows[1].NUp.P50 < rows[0].NUp.P50*2 {
		t.Errorf("4 groups/node upload (%.3f) not ≫ 1 group/node (%.3f)",
			rows[1].NUp.P50, rows[0].NUp.P50)
	}
}

// TestFig9Shape also runs the experiment twice: persistent-pool
// refreshes and T-Chord exchanges once went out in map order, which
// made two runs at one seed differ.
func TestFig9Shape(t *testing.T) {
	cfg := Fig9Config{
		Seed: 67, N: 120, GroupSize: 16, Queries: 60,
		Warmup: 10 * time.Minute, RingTime: 8 * time.Minute,
		PPSS: ppss.Config{Cycle: 30 * time.Second, KeyBlobSize: 256}, KeyBlob: 256,
	}
	res, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "fig9", res)
	again, err := Fig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Errorf("two runs at one seed differ (fingerprints %016x, %016x)", res.Fingerprint, again.Fingerprint)
	}
}

func TestCircuitShape(t *testing.T) {
	res, err := Circuit(CircuitConfig{Seed: 69, N: 150, Messages: 60})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(checkReport(t, "circuit", res), "per-message source CPU ratio") {
		t.Error("missing ratio line in output")
	}
	if res.SteadyRSA != 0 {
		t.Errorf("steady-state RSA ops = %d, want 0", res.SteadyRSA)
	}
}

func TestSuitesShape(t *testing.T) {
	res, err := Suites(SuitesConfig{Seed: 69, N: 150, Messages: 40})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(checkReport(t, "suites", res), "rsa2048 / ecc") {
		t.Error("missing ratio line in output")
	}
}

func TestTransferShape(t *testing.T) {
	cfg := TransferConfig{Seed: 69, N: 150, Messages: 4, MessageKB: 16}
	res, err := Transfer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(checkReport(t, "transfer", res), "stream throughput vs one-shot") {
		t.Error("missing throughput ratio line in output")
	}
	// Same seed, same config: the fingerprint must reproduce exactly.
	again, err := Transfer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fingerprint != again.Fingerprint {
		t.Errorf("fingerprint not deterministic: %016x != %016x", res.Fingerprint, again.Fingerprint)
	}
}

func TestPubSubShape(t *testing.T) {
	res, err := PubSub(PubSubConfig{Seed: 70, N: 60, Members: 12, Rounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "pubsub", res)
}

func TestAblationsShape(t *testing.T) {
	res, err := Ablations(AblateConfig{
		Seed: 68, N: 200, Groups: 4,
		Warmup: 8 * time.Minute, Measure: 6 * time.Minute, KeyBlob: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 11 { // 4 studies × 2 variants + faults × 3
		t.Fatalf("rows = %d, want 11", len(res.Rows))
	}
	checkReport(t, "ablate", res)
}

func TestScaleShape(t *testing.T) {
	res, err := Scale(ScaleConfig{Seed: 72, N: 2000, Shards: 4, Runtime: 30 * time.Second, Env: PlanetLab})
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, "scale", res)
}
