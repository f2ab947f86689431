package exp

import (
	"fmt"
	"io"
	"time"

	"whisper/internal/identity"
	"whisper/internal/netem"
	"whisper/internal/nylon"
	"whisper/internal/obs"
	"whisper/internal/ppss"
	"whisper/internal/sim"
	"whisper/internal/stats"
	"whisper/internal/wcl"
)

// AblateConfig parameterizes the ablation studies of the design choices
// DESIGN.md calls out: NAT lease style, hole punching, the second view
// bias, and mix-path length.
type AblateConfig struct {
	Seed    int64
	N       int
	Groups  int
	Warmup  time.Duration
	Measure time.Duration
	KeyBlob int
	// Parallel bounds the worker pool running the independent variant
	// runs (<= 0: one worker per CPU; 1: sequential).
	Parallel int
}

func (c AblateConfig) withDefaults() AblateConfig {
	if c.N == 0 {
		c.N = 300
	}
	if c.Groups == 0 {
		c.Groups = 6
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * time.Minute
	}
	if c.Measure == 0 {
		c.Measure = 8 * time.Minute
	}
	if c.KeyBlob == 0 {
		c.KeyBlob = 512
	}
	return c
}

// AblationRow summarizes one variant.
type AblationRow struct {
	Study   string
	Variant string
	Metrics map[string]float64
	Order   []string // metric print order
}

// AblateResult is the ablation table: one row per variant.
type AblateResult struct {
	Rows []AblationRow
	Digest
}

// Ablations runs all five studies — flattened into one job per variant
// so the worker pool sees every independent run — and returns one row
// per variant in the sequential harness's order (lease tcp/udp,
// punching default/relay-only, bias quota/cap, mixes 2/3, faults
// none/dup+reorder/burst). New variants append at the end so existing
// jobs keep their key-pool view indices and results stay reproducible
// across versions.
func Ablations(cfg AblateConfig) (AblateResult, error) {
	cfg = cfg.withDefaults()
	jobs := []struct {
		study   func(AblateConfig, *identity.Pool, int) (AblationRow, uint64, error)
		variant int
	}{
		{ablateLease, 0}, {ablateLease, 1}, {ablatePunching, 0}, {ablatePunching, 1},
		{ablateBiasCap, 0}, {ablateBiasCap, 1}, {ablateMixCount, 0}, {ablateMixCount, 1},
		{ablateFaults, 0}, {ablateFaults, 1}, {ablateFaults, 2},
	}
	rows, d, err := runAll(cfg.Parallel, len(jobs), func(i int, pool *identity.Pool) (AblationRow, uint64, error) {
		return jobs[i].study(cfg, pool, jobs[i].variant)
	})
	return AblateResult{rows, d}, err
}

// ablateLease compares TCP-style 24 h NAT association rules (the
// paper's RFC 5382 setting, our default) with UDP-style 5-minute rules:
// warm routes decay before view entries rotate, so first-try route
// success collapses.
func ablateLease(cfg AblateConfig, pool *identity.Pool, vi int) (AblationRow, uint64, error) {
	v := []struct {
		name  string
		lease time.Duration
		ttl   time.Duration
	}{
		{"tcp-24h (default)", 0, 0},
		{"udp-5min", 5 * time.Minute, 4 * time.Minute},
	}[vi]
	w, err := newRun("ablate/nat-lease/"+v.name, Cluster, sim.Options{
		Seed: cfg.Seed, N: cfg.N, KeyPool: pool,
		NATLease: v.lease,
		Nylon:    nylon.Config{ContactTTL: v.ttl},
		PPSS:     &ppss.Config{KeyBlobSize: cfg.KeyBlob, MinHelpers: 3},
	})
	if err != nil {
		return AblationRow{}, 0, err
	}
	w.formGroups(cfg.Groups, 1, cfg.Warmup)
	d := w.measureWCL(cfg.Measure)
	routes, first := d.routes(), float64(d.first)
	return AblationRow{
		Study: "nat-lease", Variant: v.name,
		Metrics: map[string]float64{"first-try %": pct(first, routes), "routes": routes},
		Order:   []string{"first-try %", "routes"},
	}, w.end(), nil
}

// ablatePunching compares the default traversal (hole punching where
// the NAT pair allows it) with relay-only forwarding (the Leitao et al.
// alternative surveyed in §VI). One-shot gossip exchanges route through
// relays either way (the first contact with a fresh partner always
// does), so the discriminating effect of punching is the pool of direct
// N↔N associations it leaves behind — the warm routes that the WCL's
// backlog and persistent paths then reuse.
func ablatePunching(cfg AblateConfig, pool *identity.Pool, vi int) (AblationRow, uint64, error) {
	v := []struct {
		name    string
		disable bool
	}{
		{"punching (default)", false},
		{"relay-only", true},
	}[vi]
	w, err := newRun("ablate/nat-traversal/"+v.name, Cluster, sim.Options{
		Seed: cfg.Seed, N: cfg.N, KeyPool: pool,
		Nylon: nylon.Config{DisablePunch: v.disable, MinPublic: 3},
	})
	if err != nil {
		return AblationRow{}, 0, err
	}
	w.Sim.RunUntil(cfg.Warmup)
	var punches uint64
	var contacts, nnContacts []float64
	for _, n := range w.Live() {
		punches += n.Nylon.Stats().PunchSuccesses
		ids := n.Nylon.ContactIDs()
		contacts = append(contacts, float64(len(ids)))
		nn := 0
		if !n.Public() {
			for _, id := range ids {
				if peer := w.Get(id); peer != nil && !peer.Public() {
					nn++
				}
			}
			nnContacts = append(nnContacts, float64(nn))
		}
	}
	return AblationRow{
		Study: "nat-traversal", Variant: v.name,
		Metrics: map[string]float64{
			"punches":          float64(punches),
			"contacts/node":    stats.Summarize(contacts).Mean,
			"N-N directs/node": stats.Summarize(nnContacts).Mean,
		},
		Order: []string{"punches", "contacts/node", "N-N directs/node"},
	}, w.end(), nil
}

// ablateBiasCap exercises the paper's second bias in its intended
// regime — Π higher than the network's P-node share (§III-B-1's example
// of Π=3 with only 10% P-nodes) — with and without discarding excess
// P-nodes first.
func ablateBiasCap(cfg AblateConfig, pool *identity.Pool, vi int) (AblationRow, uint64, error) {
	v := []struct {
		name string
		cap  bool
	}{
		{"min-quota only", false},
		{"min-quota + cap", true},
	}[vi]
	w, err := newRun("ablate/view-bias/"+v.name, Cluster, sim.Options{
		Seed: cfg.Seed, N: cfg.N, NATRatio: 0.9, KeyPool: pool,
		Nylon: nylon.Config{MinPublic: 3, CapExcessPublic: v.cap},
	})
	if err != nil {
		return AblationRow{}, 0, err
	}
	w.Sim.RunUntil(cfg.Warmup)
	in := w.GraphStream().InDegrees()
	var pIn []float64
	quotaOK := 0
	for _, n := range w.Live() {
		if n.Public() {
			pIn = append(pIn, float64(in[n.ID()]))
		}
		pubs := 0
		for _, e := range n.Nylon.View() {
			if e.Val.Public {
				pubs++
			}
		}
		if pubs >= 3 {
			quotaOK++
		}
	}
	s := stats.Summarize(pIn)
	return AblationRow{
		Study: "view-bias", Variant: v.name,
		Metrics: map[string]float64{
			"P in-deg mean": s.Mean,
			"P in-deg max":  s.Max,
			"quota-ok %":    pct(float64(quotaOK), float64(len(w.Live()))),
		},
		Order: []string{"P in-deg mean", "P in-deg max", "quota-ok %"},
	}, w.end(), nil
}

// ablateMixCount compares 2-mix paths (the paper's default) with 3-mix
// paths (collusion resistance per footnote 2): success stays high, the
// cost is one more RSA layer and hop of latency.
func ablateMixCount(cfg AblateConfig, pool *identity.Pool, vi int) (AblationRow, uint64, error) {
	mixes := []int{2, 3}[vi]
	w, err := newRun(fmt.Sprintf("ablate/mix-count/%d mixes", mixes), Cluster, sim.Options{
		Seed: cfg.Seed, N: cfg.N, KeyPool: pool,
		WCL:  &wcl.Config{MinPublic: 3, Mixes: mixes},
		PPSS: &ppss.Config{KeyBlobSize: cfg.KeyBlob, MinHelpers: 3},
	})
	if err != nil {
		return AblationRow{}, 0, err
	}
	w.formGroups(cfg.Groups, 1, cfg.Warmup)

	var rtts []time.Duration
	for _, n := range w.Live() {
		for _, inst := range n.PPSS.Instances() {
			inst.OnExchangeRTT = func(rtt time.Duration) { rtts = append(rtts, rtt) }
		}
	}
	d := w.measureWCL(cfg.Measure)
	routes, first := d.routes(), float64(d.first)
	rtt := stats.Percentile(durationsToSeconds(rtts), 50)
	return AblationRow{
		Study: "mix-count", Variant: fmt.Sprintf("%d mixes", mixes),
		Metrics: map[string]float64{
			"first-try %":  pct(first, routes),
			"rtt p50 (ms)": rtt * 1000,
		},
		Order: []string{"first-try %", "rtt p50 (ms)"},
	}, w.end(), nil
}

// deliveryCounter detects duplicate deliveries: a deliver event must
// fire at most once per path, whatever the network does. Counting per
// path needs the correlation key, so this is an obs.Correlator — the
// omniscient-observer role only the simulator may take.
type deliveryCounter struct {
	counts map[uint64]int
	dups   int
}

func (d *deliveryCounter) Record(node uint64, ev obs.Event) { d.RecordCorrelated(node, ev, 0) }

func (d *deliveryCounter) RecordCorrelated(_ uint64, ev obs.Event, corr uint64) {
	if ev.Kind != obs.KindDeliver {
		return
	}
	d.counts[corr]++
	if d.counts[corr] > 1 {
		d.dups++
	}
}

// ablateFaults measures confidential-route success under the netem
// fault layer: duplication plus reordering (middlebox pathologies) and
// Gilbert-Elliott burst loss. The claim under test is graceful
// degradation — the retry machinery absorbs the faults, success does
// not collapse — with strictly exactly-once delivery: a duplicated
// forward must never reach the application twice.
func ablateFaults(cfg AblateConfig, pool *identity.Pool, vi int) (AblationRow, uint64, error) {
	v := []struct {
		name   string
		faults *netem.FaultModel
	}{
		{"none (baseline)", nil},
		{"dup 5% + reorder", &netem.FaultModel{
			DupProb: 0.05, ReorderProb: 0.25, ReorderJitter: 200 * time.Millisecond,
		}},
		{"burst loss", &netem.FaultModel{
			Burst: &netem.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.3, LossBad: 0.6},
		}},
	}[vi]
	w, err := newRun("ablate/faults/"+v.name, Cluster, sim.Options{
		Seed: cfg.Seed, N: cfg.N, KeyPool: pool,
		Faults: v.faults,
		PPSS:   &ppss.Config{KeyBlobSize: cfg.KeyBlob, MinHelpers: 3},
	})
	if err != nil {
		return AblationRow{}, 0, err
	}
	tracer := &deliveryCounter{counts: map[uint64]int{}}
	for _, n := range w.Nodes {
		n.WCL.Trace = obs.NewTracer(uint64(n.Nylon.ID()), tracer)
	}
	w.formGroups(cfg.Groups, 1, cfg.Warmup)
	d := w.measureWCL(cfg.Measure)
	routes, first := d.routes(), float64(d.first)
	ok := float64(d.first + d.alt)
	suppressed := float64(d.dups)
	return AblationRow{
		Study: "faults", Variant: v.name,
		Metrics: map[string]float64{
			"ok %":            pct(ok, routes),
			"first-try %":     pct(first, routes),
			"routes":          routes,
			"dup deliveries":  float64(tracer.dups),
			"dups suppressed": suppressed,
		},
		Order: []string{"ok %", "first-try %", "routes", "dup deliveries", "dups suppressed"},
	}, w.end(), nil
}

// Print renders the ablation table.
func (res AblateResult) Print(out io.Writer) {
	fmt.Fprintln(out, "== Ablations: design-choice studies ==")
	tb := stats.NewTable("study", "variant", "metrics")
	for _, r := range res.Rows {
		m := ""
		for i, k := range r.Order {
			if i > 0 {
				m += "  "
			}
			m += fmt.Sprintf("%s=%.2f", k, r.Metrics[k])
		}
		tb.Row(r.Study, r.Variant, m)
	}
	fmt.Fprint(out, tb.String())
	res.printFingerprint(out)
}

// ShapeCheck verifies the expected directional effects.
func (res AblateResult) ShapeCheck() []string {
	byKey := map[string]AblationRow{}
	for _, r := range res.Rows {
		byKey[r.Study+"/"+r.Variant] = r
	}
	var bad []string
	if tcp, udp := byKey["nat-lease/tcp-24h (default)"], byKey["nat-lease/udp-5min"]; tcp.Metrics != nil && udp.Metrics != nil {
		if udp.Metrics["first-try %"] >= tcp.Metrics["first-try %"] {
			bad = append(bad, "UDP-lease routes not worse than TCP-lease")
		}
	}
	if p, r := byKey["nat-traversal/punching (default)"], byKey["nat-traversal/relay-only"]; p.Metrics != nil && r.Metrics != nil {
		if p.Metrics["N-N directs/node"] <= r.Metrics["N-N directs/node"] {
			bad = append(bad, "punching does not create more direct N↔N associations")
		}
		if p.Metrics["punches"] == 0 || r.Metrics["punches"] != 0 {
			bad = append(bad, "punch accounting inconsistent across variants")
		}
	}
	if plain, capped := byKey["view-bias/min-quota only"], byKey["view-bias/min-quota + cap"]; plain.Metrics != nil && capped.Metrics != nil {
		if capped.Metrics["quota-ok %"] < 50 {
			bad = append(bad, "cap variant fails the quota outright")
		}
	}
	if m2, m3 := byKey["mix-count/2 mixes"], byKey["mix-count/3 mixes"]; m2.Metrics != nil && m3.Metrics != nil {
		if m3.Metrics["first-try %"] < 50 {
			bad = append(bad, "3-mix paths mostly fail")
		}
	}
	base := byKey["faults/none (baseline)"]
	dup := byKey["faults/dup 5% + reorder"]
	burst := byKey["faults/burst loss"]
	if base.Metrics != nil && dup.Metrics != nil && burst.Metrics != nil {
		for _, r := range []AblationRow{base, dup, burst} {
			if r.Metrics["dup deliveries"] != 0 {
				bad = append(bad, "duplicate application delivery under faults/"+r.Variant)
			}
		}
		if dup.Metrics["ok %"] < 60 {
			bad = append(bad, "route success collapses under duplication+reordering")
		}
		if burst.Metrics["ok %"] < 50 {
			bad = append(bad, "route success collapses under burst loss")
		}
		if dup.Metrics["dups suppressed"] == 0 {
			bad = append(bad, "duplication variant suppressed no duplicate forwards")
		}
		if base.Metrics["dups suppressed"] != 0 {
			bad = append(bad, "baseline reports suppressed duplicates without a fault model")
		}
	}
	return bad
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
