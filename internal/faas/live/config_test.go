package live

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"hotc/internal/sharing"
)

// withDefaults is the one place a default lives; this table is the
// pinned source of truth for every one of them.
func TestPoolConfigDefaults(t *testing.T) {
	defaults := PoolConfig{
		Backend:            BackendInProcess,
		ReapInterval:       time.Second,
		ControlInterval:    2 * time.Second,
		TraceCapacity:      2048,
		TraceSampleRate:    0.01,
		TraceSlowThreshold: 500 * time.Millisecond,
		PreforkSize:        4,
		ShareWipe:          5 * time.Millisecond,
		ShareIdleGrace:     250 * time.Millisecond,
	}
	none := defaults
	none.TraceSampleRate, none.TraceSlowThreshold, none.ShareIdleGrace = 0, 0, 0
	explicit := PoolConfig{
		Backend:            BackendSocket,
		IdleTTL:            time.Minute,
		MaxIdlePerFunction: 3,
		ReapInterval:       3 * time.Second,
		ControlInterval:    5 * time.Second,
		TraceCapacity:      16,
		TraceSampleRate:    0.5,
		TraceSlowThreshold: time.Second,
		PreforkSize:        2,
		ShareWipe:          time.Millisecond,
		ShareIdleGrace:     time.Second,
	}
	for _, tc := range []struct {
		name     string
		in, want PoolConfig
	}{
		{"zero value", PoolConfig{}, defaults},
		{"negative means none", PoolConfig{TraceSampleRate: -1, TraceSlowThreshold: -1, ShareIdleGrace: -1}, none},
		{"explicit values kept", explicit, explicit},
	} {
		if got := tc.in.withDefaults(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}

// Validate names the field it refuses; the settings whose negative
// value means "none" pass.
func TestPoolConfigValidate(t *testing.T) {
	ok := PoolConfig{SharePolicy: "any", TraceSampleRate: -1, TraceSlowThreshold: -1, ShareIdleGrace: -1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config refused: %v", err)
	}
	if err := (PoolConfig{}).Validate(); err != nil {
		t.Fatalf("zero config refused: %v", err)
	}
	for field, bad := range map[string]PoolConfig{
		"Backend":            {Backend: "subprocess"},
		"SharePolicy":        {SharePolicy: "bogus"},
		"IdleTTL":            {IdleTTL: -time.Second},
		"MaxIdlePerFunction": {MaxIdlePerFunction: -1},
		"ReapInterval":       {ReapInterval: -time.Second},
		"ControlInterval":    {ControlInterval: -time.Second},
		"BreakerThreshold":   {BreakerThreshold: -1},
		"BreakerOpenFor":     {BreakerOpenFor: -time.Second},
		"MaxBodyBytes":       {MaxBodyBytes: -1},
		"MaxInFlight":        {MaxInFlight: -1},
		"QueueDepth":         {QueueDepth: -1},
		"DefaultDeadline":    {DefaultDeadline: -time.Second},
		"MemoryBudget":       {MemoryBudget: -1},
		"TraceCapacity":      {TraceCapacity: -1},
		"SLOLatency":         {SLOLatency: -time.Second},
		"SLOColdStartPct":    {SLOColdStartPct: -1},
		"PreforkSize":        {PreforkSize: -1},
		"PreforkBoot":        {PreforkBoot: -time.Second},
		"ShareWipe":          {ShareWipe: -time.Millisecond},
	} {
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), "PoolConfig."+field+":") {
			t.Errorf("bad %s: error = %v, want one naming PoolConfig.%s", field, err, field)
		}
	}
}

// For callers that skip Validate, New keeps the documented fallback: an
// unknown share policy runs as same-image.
func TestNewFallsBackToSameImagePolicy(t *testing.T) {
	g := New(PoolConfig{Share: true, SharePolicy: "bogus"})
	defer g.Stop()
	if got := g.SharingStats().Policy; got != "same-image" {
		t.Fatalf("policy = %q, want same-image", got)
	}
}

// A function registered before Start and one registered after are set
// up alike: same predictor, a fresh classifier, admission queue and
// metric handles, and both join the control loop.
func TestRegisterBeforeAndAfterStartAlike(t *testing.T) {
	cfg := testSharing()
	cfg.NewPredictor, cfg.ControlInterval = naiveFactory, time.Hour
	cfg.MaxInFlight, cfg.QueueDepth = 2, 2
	g := New(cfg)
	if err := g.Register(echoFn("before", 0)); err != nil {
		t.Fatal(err)
	}
	base, err := g.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if err := g.Register(echoFn("after", 0)); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"before", "after"} {
		s := g.shard(name)
		s.mu.Lock()
		pred, cls := s.ctl.Pred, s.ctl.share
		s.mu.Unlock()
		if pred == nil || pred.Name() != naiveFactory().Name() {
			t.Errorf("%s: predictor = %v, want %s", name, pred, naiveFactory().Name())
		}
		if cls != (sharing.Classifier{}) {
			t.Errorf("%s: classifier = %+v, want a fresh one", name, cls)
		}
		if s.adm == nil {
			t.Fatalf("%s: no admission queue", name)
		}
		post(t, base+"/function/"+name, "x")
		if got := s.adm.Snapshot().Admitted; got != 1 {
			t.Errorf("%s: admission queue admitted %d, want 1", name, got)
		}
		if got := s.m.reqOK.Value(); got != 1 {
			t.Errorf("%s: hotc_requests_total{ok} = %v, want 1", name, got)
		}
		g.controlOnce(name, time.Now())
	}
	if traces := g.PredictionTraces(); traces["before"].Ticks != 1 || traces["after"].Ticks != 1 {
		t.Errorf("prediction traces = %+v, want one tick each", traces)
	}
}
