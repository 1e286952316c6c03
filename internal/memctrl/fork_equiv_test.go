package memctrl

import (
	"testing"
)

// Golden fork-vs-cold equivalence: a crash/recovery trial executed on a
// controller forked from a warm parent must be byte-identical — run
// statistics, recovery report, and the full persistent device image
// (via nvm's canonical StateDigest, which covers what Save writes
// without serializing) — to the same trial executed on a
// cold-started controller that replayed the entire history itself. This is the contract that lets the
// recovery sweeps amortize one fill across N trials (ISSUE 3), and it
// exercises every piece of Clone: COW page sharing, cache/LRU cloning,
// shadow mirrors, wear state, WPQ/bank/port clocks, pending groups, and
// the persistent register file.

// forkObservation captures everything the trial can externally observe.
type forkObservation struct {
	stats RunStats
	rep   RecoveryReport
	image uint64 // canonical digest of the persistent device image
}

func observeTrial(t *testing.T, ctrl Controller) forkObservation {
	t.Helper()
	stats := ctrl.Stats()
	ctrl.Crash()
	rep, err := ctrl.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return forkObservation{stats: stats, rep: *rep, image: ctrl.Device().StateDigest()}
}

func checkObservation(t *testing.T, what string, got, want forkObservation) {
	t.Helper()
	if got.stats != want.stats {
		t.Errorf("%s: RunStats diverged\n got: %+v\nwant: %+v", what, got.stats, want.stats)
	}
	if got.rep != want.rep {
		t.Errorf("%s: RecoveryReport diverged\n got: %+v\nwant: %+v", what, got.rep, want.rep)
	}
	if got.image != want.image {
		t.Errorf("%s: persistent device images differ (digest %#x vs %#x)", what, got.image, want.image)
	}
}

func testForkEquivalence(t *testing.T, mk func(t *testing.T) Controller) {
	const warm, total = 2000, 4000

	// Cold control: one controller lives through the whole history.
	cold := mk(t)
	equivWorkloadRange(t, cold, 0, warm)
	equivWorkloadRange(t, cold, warm, total)
	want := observeTrial(t, cold)

	// Forked trial: warm a parent, fork, run the tail on the child.
	parent := mk(t)
	equivWorkloadRange(t, parent, 0, warm)
	child := parent.Clone()
	equivWorkloadRange(t, child, warm, total)
	got := observeTrial(t, child)
	checkObservation(t, "forked child vs cold start", got, want)

	// The parent is untouched by the child's writes, crash, and
	// recovery: continuing it through the same tail must reproduce the
	// cold control too. (This is the COW isolation property — a buggy
	// shared page would leak the child's mutations backwards.)
	equivWorkloadRange(t, parent, warm, total)
	gotParent := observeTrial(t, parent)
	checkObservation(t, "parent after child trial vs cold start", gotParent, want)
}

func TestForkEquivalenceAGIT(t *testing.T) {
	testForkEquivalence(t, func(t *testing.T) Controller {
		ctrl, err := NewBonsai(TestConfig(SchemeAGITPlus))
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	})
}

func TestForkEquivalenceASIT(t *testing.T) {
	testForkEquivalence(t, func(t *testing.T) Controller {
		ctrl, err := NewSGX(TestConfig(SchemeASIT))
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	})
}

// TestForkEquivalenceWearLeveling repeats the AGIT check with Start-Gap
// wear leveling enabled, covering wearLeveler.clone and the persistent
// Start-Gap register across Fork.
func TestForkEquivalenceWearLeveling(t *testing.T) {
	testForkEquivalence(t, func(t *testing.T) Controller {
		cfg := TestConfig(SchemeAGITPlus)
		cfg.WearPeriod = 64
		ctrl, err := NewBonsai(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	})
}

// TestForkFanOut forks one warm parent several times and checks the
// children produce identical observations to each other and to a cold
// control — the N-trials-one-fill sweep shape.
func TestForkFanOut(t *testing.T) {
	const warm, total = 2000, 3000
	mk := func() Controller {
		ctrl, err := NewSGX(TestConfig(SchemeASIT))
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	cold := mk()
	equivWorkloadRange(t, cold, 0, warm)
	equivWorkloadRange(t, cold, warm, total)
	want := observeTrial(t, cold)

	parent := mk()
	equivWorkloadRange(t, parent, 0, warm)
	for i := 0; i < 3; i++ {
		child := parent.Clone()
		equivWorkloadRange(t, child, warm, total)
		got := observeTrial(t, child)
		checkObservation(t, "fan-out child", got, want)
	}
}
