package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public surface.
// Spans of one operation (a solve, a submission, an HTTP request) share Req;
// Parent is the index of the span that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps a traced pass's spans in memory; they are written out when
// the run ends. A nil *tracer records nothing, so the timed passes call the
// same code with tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured by the caller.
func (t *tracer) record(name string, start, end time.Time, parent int, req int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(),
		End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req})
}

// durations returns the lengths of every span with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerRow is one line of the per-layer attribution table: how often a span
// name occurred, its total time, and its self time — the part of its
// interval no child span covers.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"totalMs"`
	SelfMS  float64 `json:"selfMs"`
}

// layers folds the spans into the attribution table, heaviest self time
// first.
func (t *tracer) layers() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := map[string]*layerRow{}
	for i, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		total := s.End - s.Start
		r.Count++
		r.TotalMS += float64(total) / 1e6
		r.SelfMS += float64(total-covered(s, t.spans, children[i])) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMS > out[b].SelfMS })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, spans []span, kids []int) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
	var sum, end int64
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			sum += v[1] - end
			end = v[1]
		}
	}
	return sum
}

// profiler captures the traced pass's CPU profile.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the raw pprof bytes.
func (p *profiler) stop() []byte {
	pprof.StopCPUProfile()
	return p.buf.Bytes()
}

// writeTrace writes a traced pass's artifacts into dir — spans.json (every
// span), layers.json (the attribution table) and cpu.pprof (the raw
// profile, readable with go tool pprof) — then folds the profile into flat
// per-layer shares, writes them as cpu_shares.json and returns them.
func writeTrace(dir string, t *tracer, profile []byte) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t.mu.Lock()
	spansJSON, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return nil, err
	}
	layersJSON, err := json.MarshalIndent(t.layers(), "", "  ")
	if err != nil {
		return nil, err
	}
	for name, data := range map[string][]byte{
		"spans.json": spansJSON, "layers.json": layersJSON, "cpu.pprof": profile,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return nil, err
		}
	}
	shares, err := cpuShares(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	sharesJSON, err := json.MarshalIndent(shares, "", "  ")
	if err != nil {
		return nil, err
	}
	return shares, os.WriteFile(filepath.Join(dir, "cpu_shares.json"), sharesJSON, 0o644)
}

// cpuLayers maps the import paths of the layers the CPU profile is folded
// into onto their metric suffixes (cpu.<suffix>). Everything else is
// cpu.other; samples under the garbage collector or the allocator are
// cpu.runtime_gc wherever they were taken.
var cpuLayers = map[string]string{
	"divflow/internal/lp":        "lp",
	"divflow/internal/core":      "core",
	"divflow/internal/intervals": "intervals",
	"divflow/internal/affine":    "affine",
	"divflow/internal/sim":       "sim",
	"divflow/internal/server":    "server",
	"divflow/internal/schedule":  "schedule",
	"divflow/internal/wal":       "wal",
	"divflow/internal/obs":       "obs",
	"math/big":                   "math_big",
	"net/http":                   "net_http",
	"encoding/json":              "encoding_json",
	// The scheduler, timers and the network poller: the bulk of a lightly
	// loaded server's CPU.
	"runtime":                  "runtime",
	"internal/runtime/syscall": "runtime",
	"net":                      "net",
	"internal/poll":            "net",
	"syscall":                  "net",
}

// cpuShareNames lists every cpu.* metric, so each traced run reports all of
// them (zero for a layer the profile never sampled).
func cpuShareNames() []string {
	names := []string{"cpu.runtime_gc", "cpu.other"}
	for _, s := range cpuLayers {
		names = append(names, "cpu."+s)
	}
	sort.Strings(names)
	return names
}

// profileRole is the profiler label key marking the benchmark's own load
// generator; samples labelled roleDispatcher are left out of the CPU shares.
const (
	profileRole    = "perfbench"
	roleDispatcher = "dispatcher"
)

// cpuShares folds a runtime/pprof CPU profile file into flat per-layer
// shares in percent. go tool pprof lists the profile's stacks, leaving out
// the samples of the load generator's dispatcher; foldShares charges each
// remaining sample to a layer.
func cpuShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns",
		"-tagignore="+profileRole+"="+roleDispatcher, path).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%w: %s", err, bytes.TrimSpace(ee.Stderr))
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return foldShares(parseTraces(out))
}

// parseTraces reads the samples of go tool pprof -traces -unit=ns output:
// blocks separated by dashed lines, each holding optional label lines, a
// line "<time>ns <innermost frame>" and then one caller per line.
func parseTraces(out []byte) []profSample {
	var samples []profSample
	in := false // inside a sample, past its value line
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "-----") {
			in = false
			continue
		}
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case in:
			s := &samples[len(samples)-1]
			s.frames = append(s.frames, f[0])
		case len(f) >= 2 && strings.HasSuffix(f[0], "ns"):
			v, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
			if err == nil {
				samples = append(samples, profSample{value: v, frames: []string{f[1]}})
				in = true
			}
		}
	}
	return samples
}

// foldShares charges each sample to the package of its innermost frame, or
// to the GC/allocator when any frame of its stack belongs to them, and
// returns every layer's share in percent.
func foldShares(samples []profSample) (map[string]float64, error) {
	shares := map[string]float64{}
	for _, n := range cpuShareNames() {
		shares[n] = 0
	}
	var total float64
	for _, s := range samples {
		if len(s.frames) == 0 {
			continue
		}
		bucket := "cpu.other"
		if layer, ok := cpuLayers[pkgOf(s.frames[0])]; ok {
			bucket = "cpu." + layer
		}
		for _, f := range s.frames {
			if isGC(f) {
				bucket = "cpu.runtime_gc"
				break
			}
		}
		shares[bucket] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, errors.New("cpu profile: no samples")
	}
	for k := range shares {
		shares[k] *= 100 / total
	}
	return shares, nil
}

// setShares copies the folded CPU profile into the result.
func setShares(res *outcome, shares map[string]float64) {
	for name, v := range shares {
		res.set(name, v, "%")
	}
}

// isGC reports whether a frame belongs to the garbage collector or the heap
// allocator.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.mallocgc" ||
		fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// pkgOf extracts the import path from a Go symbol name such as
// "divflow/internal/lp.(*tableau).pivot" or "math/big.nat.mul".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profSample is one profiled stack: its CPU time and its function names,
// innermost first (inlined frames expanded).
type profSample struct {
	value  float64
	frames []string
}
