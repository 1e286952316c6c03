package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public API.
// Times are nanoseconds since the run started.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"` // 0 = top level
	Req    int64  `json:"req,omitempty"`    // shared by the spans of one request
}

// tracer keeps every span in memory until the run ends, plus the CPU
// profile of the whole run. A nil *tracer records nothing, so untraced
// runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	prof  bytes.Buffer
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// record stores a finished span and returns its id.
func (t *tracer) record(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// begin opens a span whose end is set by end(id); children recorded in
// between may name it as their parent.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.record(name, parent, req, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, req int64, fn func()) time.Duration {
	s := time.Now()
	fn()
	e := time.Now()
	t.record(name, parent, req, s, e)
	return e.Sub(s)
}

// selfTimes returns, per span name (up to its first '/'), the summed
// self time in ms: each span's duration minus the part of it that its
// children cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		covered := int64(0)
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := [2]int64{-1, -1}
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > cur[1] {
				if cur[1] > cur[0] {
					covered += cur[1] - cur[0]
				}
				cur = [2]int64{lo, hi}
			} else if hi > cur[1] {
				cur[1] = hi
			}
		}
		if cur[1] > cur[0] {
			covered += cur[1] - cur[0]
		}
		name, _, _ := strings.Cut(s.Name, "/")
		out[name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// write dumps every span as JSON lines, after one header line with the
// self-time summary.
func (t *tracer) write(path string, self map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"self_ms": self, "spans": len(t.spans)}); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) startProfile() error { return pprof.StartCPUProfile(&t.prof) }

func (t *tracer) stopProfile() { pprof.StopCPUProfile() }

// finishTrace stops the profile, derives the CPU-share metrics, and
// writes the spans and the profile under -out.
func (b *bench) finishTrace() error {
	t := b.tr
	t.stopProfile()
	raw := t.prof.Bytes()
	shares, err := cpuShares(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	groups := []string{"memctrl", "nvm", "cache", "cryptoeng", "counter", "ecc", "sim", "runtime", "other"}
	for _, g := range groups {
		b.setLayer("cpu."+g+"_pct", "%", shares["figsweep"][g])
	}
	for _, g := range []string{"ecc", "cryptoeng", "nvm", "memctrl", "runtime"} {
		b.setLayer("cpu.recover."+g+"_pct", "%", shares["recover"][g])
	}
	self := t.selfTimes()
	b.meta["span_self_ms"] = self
	b.meta["spans"] = len(t.spans)
	base := filepath.Join(b.opt.out, fmt.Sprintf("%s-seed%d", b.opt.workload, b.opt.seed))
	if err := t.write(base+".spans.jsonl", self); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", raw, 0o644)
}

// cpuShares groups the samples of a gzipped pprof CPU profile by the
// benchmark's "phase" label and, within a phase, by the package of the
// sample's leaf frame. It returns percentages per phase and group.
func cpuShares(gz []byte) (map[string]map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	shares := map[string]map[string]float64{}
	totals := map[string]float64{}
	for _, s := range p.samples {
		phase := p.label(s, "phase")
		if phase == "" {
			continue
		}
		if shares[phase] == nil {
			shares[phase] = map[string]float64{}
		}
		shares[phase][layerOf(p.str(p.fnName[p.locFn[s.leaf]]))] += float64(s.value)
		totals[phase] += float64(s.value)
	}
	for phase, m := range shares {
		for g := range m {
			m[g] = m[g] * 100 / totals[phase]
		}
	}
	return shares, nil
}

// layerOf maps a fully qualified function name to a layer group.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/") {
		return "runtime"
	}
	const prefix = "anubis/internal/"
	if strings.HasPrefix(fn, prefix) {
		pkg, _, _ := strings.Cut(fn[len(prefix):], ".")
		switch pkg {
		case "memctrl", "nvm", "cache", "cryptoeng", "counter", "ecc", "sim":
			return pkg
		}
	}
	return "other"
}

// --- minimal profile.proto decoder -------------------------------------------
// Only the fields cpuShares needs: each sample's leaf location, first
// value and labels; each location's innermost function; each
// function's name; and the string table.

type profSample struct {
	leaf   uint64     // location id of the leaf frame
	value  int64      // first sample value (the sample count)
	labels [][2]int64 // key and value string-table indexes
}

type profile struct {
	strs    []string
	samples []profSample
	locFn   map[uint64]uint64 // location id -> innermost function id
	fnName  map[uint64]int64  // function id -> name string index
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

func (p *profile) label(s profSample, key string) string {
	for _, kv := range s.labels {
		if p.str(kv[0]) == key {
			return p.str(kv[1])
		}
	}
	return ""
}

func parseProfile(data []byte) (*profile, error) {
	p := &profile{locFn: map[uint64]uint64{}, fnName: map[uint64]int64{}}
	err := protoFields(data, func(field, _ int, _ uint64, b []byte) error {
		switch field {
		case 2: // Sample: location_id (1), value (2), label (3)
			var s profSample
			var gotLoc, gotVal bool
			err := protoFields(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && !gotLoc:
					if locs := appendVarints(nil, w, v, b); len(locs) > 0 {
						s.leaf, gotLoc = locs[0], true
					}
				case f == 2 && !gotVal:
					if vals := appendVarints(nil, w, v, b); len(vals) > 0 {
						s.value, gotVal = int64(vals[0]), true
					}
				case f == 3:
					var kv [2]int64
					err := protoFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 || f == 2 {
							kv[f-1] = int64(v)
						}
						return nil
					})
					s.labels = append(s.labels, kv)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location: id (1), line (4) whose first entry is innermost
			var id, fn uint64
			gotLine := false
			err := protoFields(b, func(f, _ int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !gotLine:
					gotLine = true
					return protoFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.locFn[id] = fn
			return err
		case 5: // Function: id (1), name (2)
			var id uint64
			var name int64
			err := protoFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.fnName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	return p, err
}

// protoFields walks the top-level fields of a protobuf message. For
// varint fields v holds the value; for length-delimited ones b holds
// the payload.
func protoFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (wire 0) or packed (wire 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
