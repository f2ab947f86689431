package exp

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// RunStat is one machine-readable timing record: a single simulation
// run (or an experiment total) with its wall-clock cost, event
// throughput, and merged crypto CPU meters. The whisper-exp -benchjson
// flag writes these so successive PRs have a performance trajectory to
// compare against (BENCH_whisper.json in the repository root).
type RunStat struct {
	Name         string  `json:"name"`
	Faults       string  `json:"faults,omitempty"`
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	VirtualSec   float64 `json:"virtual_sec,omitempty"`
	AESms        float64 `json:"cpu_aes_ms,omitempty"`
	RSAms        float64 `json:"cpu_rsa_ms,omitempty"`
	ECCms        float64 `json:"cpu_ecc_ms,omitempty"`
	AESOps       uint64  `json:"aes_ops,omitempty"`
	RSAEncs      uint64  `json:"rsa_encs,omitempty"`
	RSADecs      uint64  `json:"rsa_decs,omitempty"`
	Signs        uint64  `json:"signs,omitempty"`
	Verifys      uint64  `json:"verifys,omitempty"`
	ECCEncs      uint64  `json:"ecc_encs,omitempty"`
	ECCDecs      uint64  `json:"ecc_decs,omitempty"`
	ECCSigns     uint64  `json:"ecc_signs,omitempty"`
	ECCVerifys   uint64  `json:"ecc_verifys,omitempty"`

	// Transfer-run fields (whisper-exp transfer): payload bytes moved
	// and virtual-time throughput per transport leg.
	Bytes    uint64  `json:"bytes,omitempty"`
	KBPerSec float64 `json:"kb_per_sec,omitempty"`

	// Scale-run fields (whisper-exp scale).
	Nodes           int     `json:"nodes,omitempty"`
	Shards          int     `json:"shards,omitempty"`
	Windows         uint64  `json:"windows,omitempty"`
	BytesPerNode    float64 `json:"bytes_per_node,omitempty"`
	MemBytesPerNode float64 `json:"mem_bytes_per_node,omitempty"`
}

// BenchMeta describes how a whisper-exp invocation was configured, so
// a whisper-bench/v1 blob is self-describing: two blobs are comparable
// only when their metadata matches.
type BenchMeta struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Parallel   int     `json:"parallel"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Faults     string  `json:"faults,omitempty"`
}

// BenchLog collects RunStats from concurrent experiment runs. The
// zero value is ready to use; all methods are safe for concurrent use.
type BenchLog struct {
	mu   sync.Mutex
	meta BenchMeta
	runs []RunStat
}

// SetMeta records the invocation metadata embedded in the JSON output.
func (b *BenchLog) SetMeta(m BenchMeta) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.meta = m
	b.mu.Unlock()
}

// Record appends one stat.
func (b *BenchLog) Record(st RunStat) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.runs = append(b.runs, st)
	b.mu.Unlock()
}

// Runs returns a copy of the recorded stats sorted by name, so the
// JSON output is stable regardless of worker scheduling.
func (b *BenchLog) Runs() []RunStat {
	b.mu.Lock()
	out := make([]RunStat, len(b.runs))
	copy(out, b.runs)
	b.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON writes the log to path as an indented JSON document.
func (b *BenchLog) WriteJSON(path string) error {
	b.mu.Lock()
	meta := b.meta
	b.mu.Unlock()
	doc := struct {
		Schema string    `json:"schema"`
		Meta   BenchMeta `json:"meta"`
		Runs   []RunStat `json:"runs"`
	}{Schema: "whisper-bench/v1", Meta: meta, Runs: b.Runs()}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// BenchSink, when non-nil, receives a RunStat for every simulation run
// the experiments execute. whisper-exp points it at a BenchLog when
// -benchjson is set; it is nil (and recording free) otherwise.
var BenchSink *BenchLog

// end merges the finished run's meters into the bench sink and
// returns its wire digest.
func (r *run) end() uint64 {
	if BenchSink == nil {
		return r.wire.sum()
	}
	w := r.World
	wall := time.Since(r.start)
	cpu := w.CPUTotal()
	st := RunStat{
		Name:       r.name,
		Faults:     w.Opts.Faults.String(),
		WallMS:     float64(wall.Microseconds()) / 1000,
		Events:     w.Executed(),
		VirtualSec: w.Now().Seconds(),
		AESms:      float64(cpu.AES.Microseconds()) / 1000,
		RSAms:      float64(cpu.RSA.Microseconds()) / 1000,
		ECCms:      float64(cpu.ECC.Microseconds()) / 1000,
		AESOps:     cpu.AESOps,
		RSAEncs:    cpu.RSAEncs,
		RSADecs:    cpu.RSADecs,
		Signs:      cpu.Signs,
		Verifys:    cpu.Verifys,
		ECCEncs:    cpu.ECCEncs,
		ECCDecs:    cpu.ECCDecs,
		ECCSigns:   cpu.ECCSigns,
		ECCVerifys: cpu.ECCVerifys,
	}
	if secs := wall.Seconds(); secs > 0 {
		st.EventsPerSec = float64(st.Events) / secs
	}
	BenchSink.Record(st)
	return r.wire.sum()
}
