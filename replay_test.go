package hotc

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// campusClassFn maps a campus request class onto the four-key
// deployment of newCampusSim.
func campusClassFn(class int) string { return fmt.Sprintf("qr%d", class%4) }

// newCampusSim is the deployment the harness's sim_campus workload
// replays against: HotC over four qr-python functions on distinct
// runtime keys. seed 0 is noiseless; any other seed turns jitter on.
func newCampusSim(tb testing.TB, seed int64) *Simulation {
	tb.Helper()
	return newFourKeySim(tb, PolicyHotC, seed)
}

// newFourKeySim is newCampusSim's deployment under any policy.
func newFourKeySim(tb testing.TB, policy Policy, seed int64) *Simulation {
	tb.Helper()
	s, err := NewSimulation(Config{Policy: policy, LocalImages: true, Seed: seed})
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
// binary; only this test compares commits. The two-hour constants were
// computed at the commit before the simulator's hot path was first
// rewritten, the full day — the 160 372 requests the harness's
// sim_campus replays — at the commit before runtime keys became
// handles, so any change to a virtual-time output — an event that fires
// in a different order, a float that rounds differently — fails here.
func TestCampusReplayGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		minutes int // 0 is the whole day
		want    uint64
	}{
		{"noiseless", 0, 120, goldenNoiseless},
		{"jitter", 42, 120, goldenJitter},
		{"full day noiseless", 0, 0, goldenFullDay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results, err := newCampusSim(t, tc.seed).Replay(CampusWorkload(1, 1.0, tc.minutes, 4), campusClassFn)
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
	goldenFullDay   uint64 = 0x331f6b569755b0e8
)

// TestBaselineReplayGolden pins the paper's four baselines the way
// TestCampusReplayGolden pins HotC: every virtual-time output of a
// burst trace — whose burst containers outlive the base load, so each
// baseline's window, or its warm-up pings, decides when they go — and
// of two campus hours, noiseless and jittered. The constants were computed before the
// keep-alive rules moved into internal/kernel; never regenerate them to
// make a change pass.
func TestBaselineReplayGolden(t *testing.T) {
	traces := map[string]Workload{
		"burst":  BurstWorkload(2, 8, []int{5, 30}, 45, 2*time.Minute),
		"campus": CampusWorkload(1, 1.0, 120, 4),
	}
	for _, tc := range []struct {
		policy Policy
		trace  string
		seed   int64
		want   uint64
	}{
		{PolicyCold, "burst", 0, 0x32dd934c43ad2139},
		{PolicyCold, "burst", 42, 0x2bbec629c01496d},
		{PolicyCold, "campus", 0, 0x24eebdab956dd545},
		{PolicyCold, "campus", 42, 0x6b7d4dc328857c2a},
		{PolicyKeepAlive, "burst", 0, 0x9242a079b747ab99},
		{PolicyKeepAlive, "burst", 42, 0x4ec65fa33637fbe7},
		{PolicyKeepAlive, "campus", 0, 0x11c78c896b68a61c},
		{PolicyKeepAlive, "campus", 42, 0x82a4fd0c6469f6b0},
		{PolicyWarmup, "burst", 0, 0xf7de64dceb8590dd},
		{PolicyWarmup, "burst", 42, 0x72cb0438ad712717},
		{PolicyWarmup, "campus", 0, 0xcefd8d59e5f90825},
		{PolicyWarmup, "campus", 42, 0x6038bf8a05197746},
		{PolicyHistogram, "burst", 0, 0xb6a2d90df986642d},
		{PolicyHistogram, "burst", 42, 0x8e0079e4df9ccd32},
		{PolicyHistogram, "campus", 0, 0xc93503caa9d23a99},
		{PolicyHistogram, "campus", 42, 0xbf46d147ca72ff48},
	} {
		t.Run(fmt.Sprintf("%s/%s/seed%d", tc.policy, tc.trace, tc.seed), func(t *testing.T) {
			results, err := newFourKeySim(t, tc.policy, tc.seed).Replay(traces[tc.trace], campusClassFn)
			if err != nil {
				t.Fatal(err)
			}
			st := Summarize(results)
			if st.Requests == 0 || st.ColdStarts == 0 || st.Errors != 0 || (st.Reused == 0) != (tc.policy == PolicyCold) {
				t.Fatalf("replay exercises nothing: %+v", st)
			}
			if got := replayDigest(results); got != tc.want {
				t.Fatalf("digest of %d results = %#x, want %#x: a virtual-time output moved", len(results), got, tc.want)
			}
		})
	}
}

// simReplayAllocBudget is the ceiling on heap allocations per simulated
// request of a warm replay (64 before the hot path was first rewritten,
// 20 before the scheduler, the requests and the engine's completions
// were recycled, 3 before a warm hit and its release stopped making
// closures). What is left is the replay's own arrays and the cold path.
const simReplayAllocBudget = 2

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
