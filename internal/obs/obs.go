// Package obs is the unified observability layer: a concurrency-safe
// metrics registry (counters, gauges, histograms with configurable
// bucket layouts, and labeled families of each) plus a per-request
// span tracer over the paper's six §III.A workflow timestamps.
//
// The simulated pipeline (gateway, pool, controller) and the live
// net/http daemon both record into the same registry types, so a sim
// run's JSONL dump and hotcd's Prometheus /metrics endpoint expose the
// same metric families under the same names. Every metric name must
// match `hotc_[a-z_]+` — the registry enforces it at registration and
// an internal/archtest row enforces it under go test — so dashboards
// built against one binary work against the others.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// validName reports whether name follows the metric naming scheme
// hotc_[a-z_]+: a mandatory hotc_ prefix followed by lowercase words
// separated by underscores.
func validName(name string) bool {
	rest, ok := strings.CutPrefix(name, "hotc_")
	if !ok || rest == "" {
		return false
	}
	for i := 0; i < len(rest); i++ {
		if c := rest[i]; (c < 'a' || c > 'z') && c != '_' {
			return false
		}
	}
	return true
}

// Kind classifies a metric family.
type Kind int

// The metric kinds.
const (
	// KindCounter is a monotonically non-decreasing total.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram buckets observations by configurable upper bounds.
	KindHistogram
)

// String returns the Prometheus type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("obs.Kind(%d)", int(k))
	}
}

// ExponentialBuckets returns n upper bounds starting at start, growing
// by factor.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("obs: ExponentialBuckets needs n > 0, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBucketsMS is the standard request-latency layout:
// 1ms doubling to ~65s, covering warm hits through pathological cold
// starts on the edge profile.
func DefaultLatencyBucketsMS() []float64 { return ExponentialBuckets(1, 2, 17) }

// DefaultBodySizeBuckets is the standard payload-size layout: 64 B
// growing 4x to 16 MiB, covering tiny control messages through the
// multi-megabyte streams the gateway's data path is sized for.
func DefaultBodySizeBuckets() []float64 { return ExponentialBuckets(64, 4, 10) }

// Registry is a concurrency-safe collection of metric families.
// Registration is get-or-create: asking twice for the same name with a
// compatible shape returns the same family, so independent subsystems
// can instrument themselves without coordinating; an incompatible
// re-registration (different kind, labels or buckets) panics, as does
// a name violating the hotc_[a-z_]+ scheme.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// New returns an empty registry.
func New() *Registry { return &Registry{fams: make(map[string]*family)} }

// family is one named metric family with a fixed label set.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram upper bounds, strictly increasing

	mu     sync.RWMutex
	series map[string]*series
}

// series is one label-value combination's state, held entirely in
// atomics so the observation fast path (counter increments, gauge sets,
// histogram observes) is lock-free: bits carries the counter/gauge
// value as float64 bits updated by CAS, histograms bump their bucket,
// sum and count independently. Readers see each field atomically; a
// snapshot taken mid-observation may catch a histogram's count ahead
// of its sum by one observation, which is the standard exposition
// trade-off for a lock-free write path.
type series struct {
	labelValues []string

	bits    atomic.Uint64   // counter/gauge value as math.Float64bits
	counts  []atomic.Uint64 // per-bucket (non-cumulative); last entry is +Inf
	sumBits atomic.Uint64   // histogram sum as float64 bits
	count   atomic.Uint64
	// exemplars holds one recent representative observation per
	// histogram bucket (nil until a bucket gets one): an atomic
	// pointer swap on write, so attaching an exemplar never locks the
	// observation path.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one concrete traced request to the histogram bucket
// its value landed in, the OpenMetrics bridge from aggregate latency
// curves back to individual traces: a dashboard showing a p99 spike
// can surface the trace ID of a real request from the offending
// bucket.
type Exemplar struct {
	// TraceID identifies the request (rendered as the trace_id
	// exemplar label).
	TraceID string `json:"traceId"`
	// Value is the observed value the exemplar represents.
	Value float64 `json:"value"`
	// TSUnixMs is when the exemplar was recorded, milliseconds since
	// the epoch.
	TSUnixMs int64 `json:"tsUnixMs"`
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, new) {
			return
		}
	}
}

const labelSep = "\x1f"

// get resolves (creating on first use) the series for a label-value
// combination. The read path is a shared RLock so concurrent resolution
// of existing series does not serialize; hot call sites should still
// resolve once and keep the returned handle (see the Vec With docs).
func (f *family) get(labelValues []string) *series {
	if len(labelValues) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values (%v), got %d",
			f.name, len(f.labels), f.labels, len(labelValues)))
	}
	key := strings.Join(labelValues, labelSep)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), labelValues...)}
	if f.kind == KindHistogram {
		s.counts = make([]atomic.Uint64, len(f.bounds)+1)
		s.exemplars = make([]atomic.Pointer[Exemplar], len(f.bounds)+1)
	}
	f.series[key] = s
	return s
}

// family registers (or fetches) a family, validating the name and that
// any prior registration has an identical shape.
func (r *Registry) family(name, help string, kind Kind, labels []string, bounds []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: metric name %q violates the naming scheme hotc_[a-z_]+", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: %s histogram bounds must be strictly increasing (%v)", name, bounds))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind || !slices.Equal(f.labels, labels) || !slices.Equal(f.bounds, bounds) {
			panic(fmt.Sprintf("obs: conflicting re-registration of %s", name))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]*series),
	}
	r.fams[name] = f
	return f
}

// Counter is a monotonically non-decreasing total. Increments are a
// lock-free CAS on the value's float bits, so a cached Counter handle
// costs no locks and no allocations per observation.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative v panics (a counter never goes down).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic(fmt.Sprintf("obs: counter decremented by %v", v))
	}
	addFloat(&c.s.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	return math.Float64frombits(c.s.bits.Load())
}

// Gauge is a value that can go up and down. Set is an atomic store;
// Add is a lock-free CAS.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.s.bits.Store(math.Float64bits(v))
}

// Add adjusts the value by v (negative to decrement).
func (g *Gauge) Add(v float64) {
	addFloat(&g.s.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	return math.Float64frombits(g.s.bits.Load())
}

// Histogram buckets observations by upper bound. A value lands in the
// first bucket whose bound is >= the value (Prometheus `le`
// semantics); values above every bound land in the implicit +Inf
// bucket. The bucket index is a binary search over the bounds and the
// bucket/sum/count updates are independent atomics, so observation
// through a cached handle is lock-free.
type Histogram struct {
	f *family
	s *series
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.f.bounds, v)
	h.s.counts[i].Add(1)
	addFloat(&h.s.sumBits, v)
	h.s.count.Add(1)
}

// ObserveDuration records a duration in milliseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(float64(d) / float64(time.Millisecond))
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 {
	return h.s.count.Load()
}

// Sum reports the total of all observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.s.sumBits.Load())
}

// SetExemplar attaches an exemplar for value v to the bucket v falls
// in, without recording an observation (the observation was already
// counted by Observe; the exemplar only names a representative). One
// atomic pointer swap: callers attach exemplars only for requests the
// tail sampler kept, so the cost — one small allocation — is paid at
// sampling frequency, not request frequency.
func (h *Histogram) SetExemplar(v float64, traceID string, at time.Time) {
	if traceID == "" {
		return
	}
	i := sort.SearchFloat64s(h.f.bounds, v)
	h.s.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v, TSUnixMs: at.UnixMilli()})
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, KindCounter, nil, nil)
	return &Counter{s: f.get(nil)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, KindGauge, nil, nil)
	return &Gauge{s: f.get(nil)}
}

// Histogram registers (or fetches) an unlabeled histogram with the
// given upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.family(name, help, KindHistogram, nil, bounds)
	return &Histogram{f: f, s: f.get(nil)}
}

// handleCache memoizes the wrapper handle for each label combination
// so repeated With calls on a Vec return the same pre-resolved handle
// without allocating. Hot call sites should still call With once and
// keep the handle: that skips even the cache's join+lookup.
type handleCache[T any] struct {
	mu    sync.RWMutex
	cache map[string]T
}

func (c *handleCache[T]) get(key string) (T, bool) {
	c.mu.RLock()
	v, ok := c.cache[key]
	c.mu.RUnlock()
	return v, ok
}

func (c *handleCache[T]) put(key string, v T) T {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.cache[key]; ok {
		return prior
	}
	if c.cache == nil {
		c.cache = make(map[string]T)
	}
	c.cache[key] = v
	return v
}

// CounterVec is a labeled family of counters.
type CounterVec struct {
	f       *family
	handles handleCache[*Counter]
}

// CounterVec registers (or fetches) a counter family with the given
// label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, labels, nil)}
}

// With returns the cached child counter for the label values (created
// and memoized on first use, so repeated With calls do not allocate).
func (v *CounterVec) With(labelValues ...string) *Counter {
	key := strings.Join(labelValues, labelSep)
	if c, ok := v.handles.get(key); ok {
		return c
	}
	return v.handles.put(key, &Counter{s: v.f.get(labelValues)})
}

// GaugeVec is a labeled family of gauges.
type GaugeVec struct {
	f       *family
	handles handleCache[*Gauge]
}

// GaugeVec registers (or fetches) a gauge family with the given label
// names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, KindGauge, labels, nil)}
}

// With returns the cached child gauge for the label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	key := strings.Join(labelValues, labelSep)
	if g, ok := v.handles.get(key); ok {
		return g
	}
	return v.handles.put(key, &Gauge{s: v.f.get(labelValues)})
}

// HistogramVec is a labeled family of histograms sharing one bucket
// layout.
type HistogramVec struct {
	f       *family
	handles handleCache[*Histogram]
}

// HistogramVec registers (or fetches) a histogram family with the
// given bounds and label names.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, KindHistogram, labels, bounds)}
}

// With returns the cached child histogram for the label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	key := strings.Join(labelValues, labelSep)
	if h, ok := v.handles.get(key); ok {
		return h
	}
	return v.handles.put(key, &Histogram{f: v.f, s: v.f.get(labelValues)})
}

// FamilySnapshot is a point-in-time copy of one metric family.
type FamilySnapshot struct {
	Name   string   `json:"name"`
	Help   string   `json:"help,omitempty"`
	Kind   string   `json:"kind"`
	Labels []string `json:"labels,omitempty"`
	// Bounds are the histogram bucket upper bounds (+Inf implicit).
	Bounds []float64        `json:"bounds,omitempty"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one label combination's values.
type SeriesSnapshot struct {
	LabelValues []string `json:"labelValues,omitempty"`
	// Value is the counter total or gauge level.
	Value float64 `json:"value,omitempty"`
	// Count, Sum and BucketCounts describe a histogram; BucketCounts
	// are per-bucket (non-cumulative), last entry +Inf.
	Count        uint64   `json:"count,omitempty"`
	Sum          float64  `json:"sum,omitempty"`
	BucketCounts []uint64 `json:"bucketCounts,omitempty"`
	// Exemplars are the buckets' representative traced observations,
	// ascending by bucket index; buckets without one are absent.
	Exemplars []BucketExemplar `json:"exemplars,omitempty"`
}

// BucketExemplar is one bucket's exemplar in a snapshot.
type BucketExemplar struct {
	// Bucket indexes into BucketCounts (len(bounds) = +Inf).
	Bucket int `json:"bucket"`
	Exemplar
}

// Snapshot copies every family, sorted by name with series sorted by
// label values, so output is deterministic.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:   f.name,
			Help:   f.help,
			Kind:   f.kind.String(),
			Labels: append([]string(nil), f.labels...),
			Bounds: append([]float64(nil), f.bounds...),
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s := f.series[k]
			ss := SeriesSnapshot{
				LabelValues: append([]string(nil), s.labelValues...),
				Value:       math.Float64frombits(s.bits.Load()),
				Count:       s.count.Load(),
				Sum:         math.Float64frombits(s.sumBits.Load()),
			}
			if f.kind == KindHistogram {
				ss.BucketCounts = make([]uint64, len(s.counts))
				for i := range s.counts {
					ss.BucketCounts[i] = s.counts[i].Load()
				}
				for i := range s.exemplars {
					if ex := s.exemplars[i].Load(); ex != nil {
						ss.Exemplars = append(ss.Exemplars, BucketExemplar{Bucket: i, Exemplar: *ex})
					}
				}
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}
