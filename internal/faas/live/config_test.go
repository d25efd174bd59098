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
		ReapInterval:       time.Second,
		ControlInterval:    2 * time.Second,
		InstanceMemBytes:   64 << 20,
		TraceCapacity:      2048,
		TraceSampleRate:    0.01,
		TraceSlowThreshold: 500 * time.Millisecond,
		PreforkSize:        4,
		BootPullFrac:       0.55,
		BootRuntimeFrac:    0.30,
		BootAppFrac:        0.15,
		ShareWipe:          5 * time.Millisecond,
		ShareIdleGrace:     250 * time.Millisecond,
	}
	none := defaults
	none.TraceSampleRate, none.TraceSlowThreshold, none.ShareIdleGrace = 0, 0, 0
	explicit := PoolConfig{
		IdleTTL:            time.Minute,
		MaxIdlePerFunction: 3,
		ReapInterval:       3 * time.Second,
		ControlInterval:    5 * time.Second,
		InstanceMemBytes:   1 << 20,
		TraceCapacity:      16,
		TraceSampleRate:    0.5,
		TraceSlowThreshold: time.Second,
		PreforkSize:        2,
		BootPullFrac:       0.5,
		BootRuntimeFrac:    0.25,
		BootAppFrac:        0.25,
		ShareWipe:          time.Millisecond,
		ShareIdleGrace:     time.Second,
	}
	percent := explicit
	percent.BootPullFrac, percent.BootRuntimeFrac, percent.BootAppFrac = 50, 25, 25

	for _, tc := range []struct {
		name     string
		in, want PoolConfig
	}{
		{"zero value", PoolConfig{}, defaults},
		{"negative means none", PoolConfig{TraceSampleRate: -1, TraceSlowThreshold: -1, ShareIdleGrace: -1}, none},
		{"explicit values kept", explicit, explicit},
		{"boot split normalized", percent, explicit},
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
		"SharePolicy":        {SharePolicy: "bogus"},
		"IdleTTL":            {IdleTTL: -time.Second},
		"MaxIdlePerFunction": {MaxIdlePerFunction: -1},
		"ReapInterval":       {ReapInterval: -time.Second},
		"ControlInterval":    {ControlInterval: -time.Second},
		"Headroom":           {Headroom: -0.1},
		"BreakerThreshold":   {BreakerThreshold: -1},
		"BreakerOpenFor":     {BreakerOpenFor: -time.Second},
		"MaxBodyBytes":       {MaxBodyBytes: -1},
		"MaxInFlight":        {MaxInFlight: -1},
		"QueueDepth":         {QueueDepth: -1},
		"DefaultDeadline":    {DefaultDeadline: -time.Second},
		"MemoryBudget":       {MemoryBudget: -1},
		"InstanceMemBytes":   {InstanceMemBytes: -1},
		"TraceCapacity":      {TraceCapacity: -1},
		"SLOLatency":         {SLOLatency: -time.Second},
		"SLOColdStartPct":    {SLOColdStartPct: -1},
		"PreforkSize":        {PreforkSize: -1},
		"PreforkBoot":        {PreforkBoot: -time.Second},
		"LayerCacheCapMB":    {LayerCacheCapMB: -1},
		"BootPullFrac":       {BootPullFrac: -1, BootRuntimeFrac: 1, BootAppFrac: 1},
		"BootRuntimeFrac":    {BootPullFrac: 1, BootRuntimeFrac: -1, BootAppFrac: 1},
		"BootAppFrac":        {BootPullFrac: 1, BootRuntimeFrac: 1, BootAppFrac: -1},
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
// up alike: same predictor, classifier tuning, admission queue and
// metric handles, and both join the control loop.
func TestRegisterBeforeAndAfterStartAlike(t *testing.T) {
	cfg := testSharing()
	cfg.NewPredictor, cfg.ControlInterval = naiveFactory, time.Hour
	cfg.MaxInFlight, cfg.QueueDepth = 2, 2
	g := New(cfg)
	g.share.classifier = sharing.ClassifierConfig{LendThreshold: 0.4}
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

	tuned := *sharing.NewClassifier(g.share.classifier)
	for _, name := range []string{"before", "after"} {
		s := g.shard(name)
		s.mu.Lock()
		pred, cls := s.ctl.Pred, s.ctl.share
		s.mu.Unlock()
		if pred == nil || pred.Name() != naiveFactory().Name() {
			t.Errorf("%s: predictor = %v, want %s", name, pred, naiveFactory().Name())
		}
		if cls != tuned {
			t.Errorf("%s: classifier = %+v, want the configured tuning %+v", name, cls, tuned)
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
