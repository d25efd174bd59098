package hotc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// campusClassFn maps a campus request class onto the four-key
// deployment of newCampusSim.
func campusClassFn(class int) string { return fmt.Sprintf("qr%d", class%4) }

// newCampusSim is the deployment the harness's sim_campus workload
// replays against: HotC over four qr-python functions on distinct
// runtime keys. seed 0 is noiseless; any other seed turns jitter on.
func newCampusSim(tb testing.TB, seed int64) *Simulation {
	tb.Helper()
	s, err := NewSimulation(Config{Policy: PolicyHotC, LocalImages: true, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	app, err := AppQR("python")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		err := s.Deploy(FunctionSpec{
			Name:    campusClassFn(i),
			Runtime: Runtime{Image: "python:3.8", Env: []string{fmt.Sprintf("FN=%d", i)}},
			App:     app,
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// replayDigest folds every result's virtual-time outputs into one
// FNV-64a value, in arrival order.
func replayDigest(results []RequestResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, r := range results {
		put(uint64(r.Latency))
		put(uint64(r.Initiation))
		reused := uint64(0)
		if r.Reused {
			reused = 1
		}
		put(reused)
		put(uint64(r.Faults))
	}
	return h.Sum64()
}

// The harness compares a replay with a second replay of the same
// binary; only this test compares commits. Both constants were computed
// at the commit before the simulator's hot path was rewritten (PR 20),
// so any change to a virtual-time output — an event that fires in a
// different order, a float that rounds differently — fails here.
func TestCampusReplayGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		want uint64
	}{
		{"noiseless", 0, goldenNoiseless},
		{"jitter", 42, goldenJitter},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results, err := newCampusSim(t, tc.seed).Replay(CampusWorkload(1, 1.0, 120, 4), campusClassFn)
			if err != nil {
				t.Fatal(err)
			}
			st := Summarize(results)
			if st.Requests == 0 || st.ColdStarts == 0 || st.Reused == 0 || st.Errors != 0 {
				t.Fatalf("replay exercises nothing: %+v", st)
			}
			if got := replayDigest(results); got != tc.want {
				t.Fatalf("digest of %d results = %#x, want %#x: a virtual-time output moved", len(results), got, tc.want)
			}
		})
	}
}

const (
	goldenNoiseless uint64 = 0x7170be9555ea38a1
	goldenJitter    uint64 = 0x22e987a136063bc9
)

// simReplayAllocBudget is the ceiling on heap allocations per simulated
// request of a warm replay (the parent of PR 20 spent 64).
const simReplayAllocBudget = 24

func TestSimReplayAllocBudget(t *testing.T) {
	s := newCampusSim(t, 0)
	w := CampusWorkload(1, 1.0, 120, 4)
	replay := func() {
		if _, err := s.Replay(w, campusClassFn); err != nil {
			t.Fatal(err)
		}
	}
	replay() // boots the pools; later replays run warm
	perReq := testing.AllocsPerRun(3, replay) / float64(len(w))
	t.Logf("%.1f allocations per simulated request over %d requests", perReq, len(w))
	if perReq > simReplayAllocBudget {
		t.Fatalf("a warm replay allocates %.1f times per simulated request, budget %d", perReq, simReplayAllocBudget)
	}
}
