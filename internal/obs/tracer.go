package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventKind classifies a probe event.
type EventKind uint8

const (
	// EvReadReq / EvWriteReq are completed simulated requests
	// (emitted by sim.Run with their attribution delta).
	EvReadReq EventKind = iota
	EvWriteReq
	// EvEviction is a dirty metadata-cache victim writeback.
	EvEviction
	// EvCommit is one atomic commit group draining into the WPQ
	// (arg = staged entry count).
	EvCommit
	// EvOverflow is a split-counter page re-encryption.
	EvOverflow
	// EvRecovery is a post-crash recovery run (duration in modeled ns,
	// arg = fetch+crypto op count).
	EvRecovery
	// EvPhase is a harness-level phase marker (warm-up, sweep, trial).
	EvPhase
	// EvEpochClose is one coalesced epoch drain: the deferred integrity-
	// tree updates of a whole epoch hitting the WPQ as one commit group
	// (arg = coalesced ancestor count).
	EvEpochClose

	numEventKinds = iota
)

var eventNames = [numEventKinds]string{
	"read", "write", "eviction", "commit", "page_overflow", "recovery", "phase",
	"epoch_close",
}

// String returns the kind's trace-event name.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Probe observes simulation events. Controllers and the simulator hold
// a Probe field that is nil by default: every emission site is guarded
// by a single nil check, so the disabled probe path costs one
// predictable branch and zero allocations, and a probe can never
// change simulated timing (it only ever receives completed facts).
type Probe interface {
	// Request reports one completed request: op is EvReadReq or
	// EvWriteReq, addr the block address, issue/done the request's
	// virtual-time window, attr the per-component latency breakdown
	// (summing exactly to done-issue).
	Request(op EventKind, addr, issueNS, doneNS uint64, attr *Ledger)
	// Event reports a non-request event occupying [startNS, endNS]
	// (endNS == startNS for instants); arg is kind-specific.
	Event(kind EventKind, startNS, endNS, arg uint64)
}

// Tracer collects sampled probe events and writes them as Chrome
// trace-event JSON (the "JSON Array Format" chrome://tracing and
// Perfetto load). Request events are sampled 1/N per scope; structural
// events (commits, evictions, recovery, phases) are always kept.
//
// A Tracer is shared by every simulation cell of a sweep: each cell
// attaches its own Scope (one trace "thread"), so the only
// synchronization is an append under the Tracer's mutex on the sampled
// slow path. Simulated nanoseconds map to trace microseconds.
type Tracer struct {
	mu     sync.Mutex
	sample uint64 // keep 1 in `sample` request events (min 1)
	events []traceEvent
	scopes int
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer creates a tracer keeping 1 in sampleN request events
// (sampleN <= 1 keeps every request).
func NewTracer(sampleN int) *Tracer {
	if sampleN < 1 {
		sampleN = 1
	}
	return &Tracer{sample: uint64(sampleN)}
}

// Scope returns a Probe bound to a named trace thread (one per
// simulation cell). The scope carries its own deterministic sampling
// counter, so which requests are sampled does not depend on worker
// interleaving.
func (t *Tracer) Scope(name string) *Scope {
	t.mu.Lock()
	t.scopes++
	tid := t.scopes
	t.events = append(t.events, traceEvent{
		Name: "thread_name", Ph: "M", PID: 1, TID: tid,
		Args: map[string]any{"name": name},
	})
	t.mu.Unlock()
	return &Scope{t: t, tid: tid}
}

// add appends one event under the lock.
func (t *Tracer) add(e traceEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Len returns the number of collected events (metadata included).
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// WriteJSON emits the collected events as a JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// One array, one event per line: encoding/json handles escaping.
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, e := range t.events {
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

// Scope is a Tracer view bound to one trace thread.
type Scope struct {
	t    *Tracer
	tid  int
	nReq uint64
}

var _ Probe = (*Scope)(nil)

// Request implements Probe with 1/N sampling.
func (s *Scope) Request(op EventKind, addr, issueNS, doneNS uint64, attr *Ledger) {
	s.nReq++
	if (s.nReq-1)%s.t.sample != 0 {
		return
	}
	args := map[string]any{"addr": addr}
	if attr != nil {
		for i, v := range attr {
			if v != 0 && Comp(i) != CompCPUGap {
				args[compNames[i]+"_ns"] = v
			}
		}
	}
	s.t.add(traceEvent{
		Name: op.String(), Cat: "request", Ph: "X",
		TS: float64(issueNS) / 1e3, Dur: float64(doneNS-issueNS) / 1e3,
		PID: 1, TID: s.tid, Args: args,
	})
}

// Event implements Probe. Structural events are never sampled away.
func (s *Scope) Event(kind EventKind, startNS, endNS, arg uint64) {
	e := traceEvent{
		Name: kind.String(), Cat: "sim", Ph: "X",
		TS: float64(startNS) / 1e3, PID: 1, TID: s.tid,
		Args: map[string]any{"arg": arg},
	}
	if endNS > startNS {
		e.Dur = float64(endNS-startNS) / 1e3
	} else {
		e.Ph = "i" // instant
	}
	s.t.add(e)
}
