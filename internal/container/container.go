// Package container implements the simulated container engine: the
// substrate the paper's Docker 1.17 testbed provides. Containers move
// through a lifecycle that mirrors the three states HotC tracks
// (§IV.B, Fig. 7): Not-Existing (-1), Existing-Not-Available (0) and
// Existing-Available (1); internally the engine also distinguishes the
// transient Starting and terminal Stopped conditions.
//
// All durations come from the cost model: image pull/unpack against a
// host-local layer cache, engine setup scaled by the network mode's
// factor, network setup per Fig. 4(c), volume setup/cleanup per the
// paper's used-container-cleanup design, and per-language runtime and
// application initialisation at first execution.
package container

import (
	"fmt"
	"time"

	"hotc/internal/config"
	"hotc/internal/costmodel"
	"hotc/internal/image"
	"hotc/internal/network"
	"hotc/internal/rng"
	"hotc/internal/simclock"
	"hotc/internal/workload"
)

// State is the container lifecycle state. The exported values match
// the paper's Fig. 7 encoding.
type State int

const (
	// NotExisting (-1): no container for this runtime key.
	NotExisting State = -1
	// NotAvailable (0): exists but occupied (or still starting).
	NotAvailable State = 0
	// Available (1): exists and idle, ready for reuse.
	Available State = 1
	// Stopped (2): terminated; volumes deleted. Terminal.
	Stopped State = 2
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case NotExisting:
		return "not-existing"
	case NotAvailable:
		return "existing-not-available"
	case Available:
		return "existing-available"
	case Stopped:
		return "stopped"
	default:
		return fmt.Sprintf("container.State(%d)", int(s))
	}
}

// Mechanism selects how fresh containers obtain an initialised
// runtime — the alternative cold-start attacks from the paper's
// related work (§VI), implemented for comparison against HotC's reuse:
type Mechanism int

const (
	// Vanilla boots a container from scratch and initialises the
	// language runtime and application on first execution (the Docker
	// default the paper measures).
	Vanilla Mechanism = iota
	// Zygote forks containers from a pre-initialised zygote process
	// with the language runtime already loaded (SOCK, Oakes et al.):
	// engine setup is leaner and runtime init is skipped, but
	// application init (model load, connections) is still paid.
	Zygote
	// Checkpoint restores a memory snapshot taken after full
	// initialisation (Replayable Execution, Wang et al.): no runtime
	// or application init, but the restore cost grows with the
	// application's resident memory.
	Checkpoint
)

// String returns the mechanism name.
func (m Mechanism) String() string {
	switch m {
	case Vanilla:
		return "vanilla"
	case Zygote:
		return "zygote-fork"
	case Checkpoint:
		return "checkpoint-restore"
	default:
		return fmt.Sprintf("container.Mechanism(%d)", int(m))
	}
}

// snapshotFrac is the fraction of an application's resident memory
// written into its checkpoint image.
const snapshotFrac = 0.5

// Spec is a fully resolved container specification: the normalised
// runtime configuration plus the image and network mode it denotes.
// Specs travel by pointer — a deployment holds one and every request,
// pool and controller call reads it — and are not changed once resolved;
// a container keeps a copy of the spec it was created or repurposed
// from.
type Spec struct {
	Runtime config.Runtime
	Image   image.Image
	Net     network.Mode

	// key is Runtime.Key(), derived once: by ResolveSpec, or at the
	// first Key call of a spec built as a literal.
	key config.Key
	// ref is the key's handle on the engine that last resolved it (see
	// Engine.KeyOf): a field read on every later call.
	ref keyRef
}

// keyRef is a runtime key's handle on one engine.
type keyRef struct {
	eng *Engine
	id  KeyID
}

// KeyID is a runtime key's handle on an engine: a dense index, assigned
// in the order the engine first sees each key, under which the pool,
// the controller and the gateway keep their per-key records in slices.
type KeyID int

// Key returns the runtime pool key for this spec.
func (s *Spec) Key() config.Key {
	if s.key == "" {
		s.key = s.Runtime.Key()
	}
	return s.key
}

// ResolveSpec looks up the runtime's image in the registry and parses
// its network mode.
func ResolveSpec(rt config.Runtime, reg *image.Registry) (*Spec, error) {
	n := rt.Normalize()
	if err := n.Validate(); err != nil {
		return nil, err
	}
	im, err := reg.Lookup(n.Image)
	if err != nil {
		return nil, err
	}
	mode, _, err := network.Parse(n.Network)
	if err != nil {
		return nil, err
	}
	return &Spec{Runtime: n, Image: im, Net: mode, key: n.Key()}, nil
}

// Volume is the per-container scratch volume HotC assigns (§IV.B):
// cleanup wipes it and mounts a fresh generation; stopping the
// container deletes it.
type Volume struct {
	// Generation counts remounts; each reuse gets a fresh generation.
	Generation int
	// Dirty reports whether the current generation has been written.
	Dirty bool
	// Deleted is set when the owning container stops.
	Deleted bool
}

// Container is one simulated container instance.
type Container struct {
	// ID is the engine-assigned identifier.
	ID string
	// Spec is the resolved specification the container was created from.
	Spec Spec
	// CreatedAt and LastUsedAt are virtual timestamps for age-based
	// eviction (§IV.B: "the oldest live container is forcibly
	// terminated").
	CreatedAt  simclock.Time
	LastUsedAt simclock.Time
	// Execs counts completed executions.
	Execs int
	// Volume is the scratch volume.
	Volume Volume

	state State
	// tally, when set, is its owner's count of the containers of one
	// share that are Available (see Tally).
	tally *int
	// reserved marks a container claimed by the pool for a specific
	// request but not yet executing; it is NotAvailable to everyone
	// except the holder of the reservation.
	reserved bool
	// warm lists the app names that have initialised inside this
	// container; a warm app skips runtime+app init and runs at full
	// cache speed (§IV.A: hot cache, fewer TLB flushes). A container
	// serves one app, or a few after relaxed reuse, so a scan beats a
	// hash of the name.
	warm []string

	// The exec and the volume cleanup in flight, and the callbacks the
	// engine bound to the container at creation to finish them. There
	// is at most one of each: Exec takes a container only Available or
	// reserved and leaves it neither, and CleanVolume refuses one it is
	// already cleaning.
	exec              pendingExec
	clean             pendingClean
	execEnd, cleanEnd func()
	// The nominal phases of the exec in flight, or of the last one (see
	// Phases).
	initPhase, execPhase time.Duration
}

type pendingExec struct {
	app           string // the app's name
	cpuPct, memMB float64
	cost          time.Duration
	warm          bool // the app was warm when the exec began
	done          func(time.Duration, error)
}

type pendingClean struct {
	prev State // restored when the cleanup ends
	done func(error)
}

// State returns the current lifecycle state.
func (c *Container) State() State { return c.state }

// Key returns the runtime pool key.
func (c *Container) Key() config.Key { return c.Spec.Key() }

// warmFor reports whether the named app has already initialised in c.
func (c *Container) warmFor(name string) bool {
	for _, w := range c.warm {
		if w == name {
			return true
		}
	}
	return false
}

// markWarm records that the named app has initialised in c.
func (c *Container) markWarm(name string) {
	if !c.warmFor(name) {
		c.warm = append(c.warm, name)
	}
}

// Phases returns the nominal phases (see Engine.phases) of the exec
// in flight in c, or of its last one: the split its executor apportions
// the measured duration over.
func (c *Container) Phases() (init, exec time.Duration) { return c.initPhase, c.execPhase }

// Tally makes *n count c while it is Available: the count of idle
// containers an owner keeps for a share of the engine's containers (the
// pool keeps one per runtime key). Every state change keeps it from
// then on, as the engine keeps its own; c moves out of the count it was
// in before, and a nil n ends the counting.
func (c *Container) Tally(n *int) {
	if c.state == Available {
		if c.tally != nil {
			*c.tally--
		}
		if n != nil {
			*n++
		}
	}
	c.tally = n
}

// Stats aggregates engine-level counters for reports and tests.
type Stats struct {
	Created     int
	Reused      int
	Stopped     int
	ColdStarts  int // executions that paid initialisation
	WarmStarts  int // executions that skipped initialisation
	PulledMB    float64
	CleanedVols int
	// Repurposed counts containers re-keyed to a different runtime
	// spec by inter-function sharing leases.
	Repurposed int
}

// Engine is the simulated container engine. It is single-threaded by
// design: all operations run on the simulation scheduler's goroutine,
// so no locking is needed (the DES owns all state).
type Engine struct {
	sched *simclock.Scheduler
	cm    *costmodel.Model
	cache *image.Cache
	reg   *image.Registry
	jit   *rng.Source

	nextID     int
	containers map[string]*Container
	stats      Stats
	// available counts the containers in the Available state: every
	// state change goes through setState, which keeps it.
	available int
	// keyIDs interns the runtime keys the engine has seen: KeyID i is
	// the i-th key resolved (see KeyOf).
	keyIDs map[config.Key]KeyID

	// activeCPUPct and activeMemMB account the resources of currently
	// executing workloads, for the Fig. 15 host-resource monitoring.
	activeCPUPct float64
	activeMemMB  float64

	// CreateHook, if set, is consulted before each create; a non-nil
	// error fails the creation after the engine-setup delay (modelling
	// resource exhaustion or registry failures).
	CreateHook func(*Spec) error
	// ExecHook, if set, is consulted before each exec.
	ExecHook func(*Container, workload.App) error
	// StartDelayHook, if set, returns extra boot latency added to each
	// create (modelling slow-start faults: registry throttling, disk
	// pressure, noisy neighbours). A zero return leaves the boot cost
	// unchanged.
	StartDelayHook func(*Spec) time.Duration

	// Mechanism selects the cold-start mechanism for fresh containers
	// (default Vanilla). It must be set before any containers are
	// created.
	Mechanism Mechanism
}

// NewEngine builds an engine over the given scheduler, cost model,
// registry and layer cache. jit supplies latency jitter; pass nil for
// a noiseless engine.
func NewEngine(sched *simclock.Scheduler, cm *costmodel.Model, reg *image.Registry, cache *image.Cache, jit *rng.Source) *Engine {
	if sched == nil || cm == nil || reg == nil || cache == nil {
		panic("container: NewEngine requires scheduler, cost model, registry and cache")
	}
	return &Engine{
		sched:      sched,
		cm:         cm,
		cache:      cache,
		reg:        reg,
		jit:        jit,
		containers: make(map[string]*Container),
		keyIDs:     make(map[config.Key]KeyID),
	}
}

// KeyOf returns the spec's key handle on this engine. The key is hashed
// once per spec, at the first call; the handle is kept on the spec, so
// every later call is a field read.
func (e *Engine) KeyOf(s *Spec) KeyID {
	if s.ref.eng != e {
		key := s.Key()
		id, ok := e.keyIDs[key]
		if !ok {
			id = KeyID(len(e.keyIDs))
			e.keyIDs[key] = id
		}
		s.ref = keyRef{eng: e, id: id}
	}
	return s.ref.id
}

// LookupKey returns the handle of a key the engine has resolved, for
// the by-key accessors reports and tests use.
func (e *Engine) LookupKey(key config.Key) (KeyID, bool) {
	id, ok := e.keyIDs[key]
	return id, ok
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Model returns the engine's cost model.
func (e *Engine) Model() *costmodel.Model { return e.cm }

// Scheduler returns the engine's scheduler.
func (e *Engine) Scheduler() *simclock.Scheduler { return e.sched }

// Live returns the number of containers that exist and are not
// stopped.
func (e *Engine) Live() int {
	n := 0
	for _, c := range e.containers {
		if c.state != Stopped {
			n++
		}
	}
	return n
}

// LiveContainers returns all live containers (order unspecified).
func (e *Engine) LiveContainers() []*Container {
	out := make([]*Container, 0, len(e.containers))
	for _, c := range e.containers {
		if c.state != Stopped {
			out = append(out, c)
		}
	}
	return out
}

// IdleOverheadMemMB is the memory cost of all live idle containers:
// the Fig. 15(a) quantity (~0.7 MB per live container).
func (e *Engine) IdleOverheadMemMB() float64 { return e.perAvailable(e.cm.C.IdleContainerMemMB) }

// perAvailable adds cost once per Available container, the additions a
// walk over the containers would make, so the sum has the same bits.
func (e *Engine) perAvailable(cost float64) float64 {
	n := 0.0
	for i := 0; i < e.available; i++ {
		n += cost
	}
	return n
}

// setState moves c to state s, keeping the Available counts: the
// engine's, and the one c is tallied in. Stopped is terminal: a
// completion that lands after the container stopped (and left the
// engine) does not bring it back.
func (e *Engine) setState(c *Container, s State) {
	if c.state == Stopped {
		return
	}
	d := 0
	if c.state == Available {
		d--
	}
	if s == Available {
		d++
	}
	e.available += d
	if c.tally != nil {
		*c.tally += d
	}
	c.state = s
}

// ActiveCPUPct is the CPU usage of all currently executing workloads.
func (e *Engine) ActiveCPUPct() float64 { return e.activeCPUPct }

// ActiveMemMB is the memory usage of all currently executing
// workloads.
func (e *Engine) ActiveMemMB() float64 { return e.activeMemMB }

// IdleOverheadCPUPct is the CPU cost of all live idle containers.
func (e *Engine) IdleOverheadCPUPct() float64 { return e.perAvailable(e.cm.C.IdleContainerCPUPct) }

func (e *Engine) jitter(d time.Duration) time.Duration {
	if e.jit == nil {
		return d
	}
	return e.cm.Jitter(d, func() float64 { return e.jit.Norm(0, 1) })
}

// StartCost computes the full cold-boot duration for a spec given the
// current layer cache: pull missing layers, unpack them, engine setup
// scaled by the network mode, network setup, volume setup, and the
// watchdog boot.
func (e *Engine) StartCost(spec *Spec) time.Duration {
	missing := e.cache.MissingMB(spec.Image)
	d := e.cm.PullCost(missing) + e.cm.UnpackCost(missing)
	engine := float64(e.cm.EngineSetupCost()) * spec.Net.EngineFactor()
	if e.Mechanism == Zygote {
		engine *= e.cm.C.ZygoteEngineFactor
	}
	d += time.Duration(engine)
	d += spec.Net.SetupCost(e.cm)
	d += e.cm.VolumeSetupCost()
	d += e.cm.WatchdogBootCost()
	return d
}

// initCost is the first-execution initialisation a fresh runtime pays
// under the engine's cold-start mechanism.
func (e *Engine) initCost(app *workload.App) time.Duration {
	switch e.Mechanism {
	case Zygote:
		// The zygote holds the language runtime; only business-logic
		// init remains.
		return e.cm.InitCost(app.AppInit)
	case Checkpoint:
		// Restore the post-init snapshot instead of initialising.
		return e.cm.RestoreCost(app.MemMB * snapshotFrac)
	default:
		return e.cm.InitCost(app.InitCost())
	}
}

// Create asynchronously boots a new container for spec. done receives
// the container (in Available state) or an error after the simulated
// boot delay has elapsed.
func (e *Engine) Create(spec *Spec, done func(*Container, error)) {
	if done == nil {
		panic("container: Create requires a completion callback")
	}
	e.KeyOf(spec) // the container's copy of the spec carries the handle
	cost := e.jitter(e.StartCost(spec))
	if e.StartDelayHook != nil {
		if extra := e.StartDelayHook(spec); extra > 0 {
			cost += extra
		}
	}
	e.sched.After(cost, func() {
		if e.CreateHook != nil {
			if err := e.CreateHook(spec); err != nil {
				done(nil, fmt.Errorf("container: create failed: %w", err))
				return
			}
		}
		missing := e.cache.MissingMB(spec.Image)
		e.cache.Admit(spec.Image)
		e.stats.PulledMB += missing
		e.nextID++
		c := &Container{
			ID:         fmt.Sprintf("ctr-%06d", e.nextID),
			Spec:       *spec,
			CreatedAt:  e.sched.Now(),
			LastUsedAt: e.sched.Now(),
			Volume:     Volume{Generation: 1},
		}
		c.execEnd = func() { e.endExec(c) }
		c.cleanEnd = func() { e.endClean(c) }
		e.setState(c, Available)
		e.containers[c.ID] = c
		e.stats.Created++
		done(c, nil)
	})
}

// Reserve claims an Available container for a pending request: it
// becomes NotAvailable immediately (no simulated time passes) so that
// no other request can take it while this one is queued. The holder
// either Execs it (which consumes the reservation) or Unreserves it.
func (e *Engine) Reserve(c *Container) error {
	if c.state != Available {
		return fmt.Errorf("container: reserve on %s in state %v", c.ID, c.state)
	}
	e.setState(c, NotAvailable)
	c.reserved = true
	return nil
}

// Unreserve returns a reserved container to the Available state.
func (e *Engine) Unreserve(c *Container) {
	if c.reserved {
		c.reserved = false
		if c.state == NotAvailable {
			e.setState(c, Available)
		}
	}
}

// ExecCost computes the duration of running app in c right now: a
// container not yet warm for the app pays runtime + app init and the
// cache-cold execution penalty; a warm one runs at full speed.
func (e *Engine) ExecCost(c *Container, app workload.App) time.Duration {
	init, exec := e.phases(&app, c.warmFor(app.Name))
	return init + exec
}

// phases splits ExecCost into the watchdog-visible phases used for the
// Fig. 5 timestamp breakdown: the initialisation phase (watchdog shim
// plus runtime/app init when cold) and the function execution phase,
// for an app that is, or is not, warm.
func (e *Engine) phases(app *workload.App, warm bool) (init, exec time.Duration) {
	init = e.cm.WatchdogShimCost()
	if warm {
		return init, e.cm.ExecCost(app.Exec)
	}
	return init + e.initCost(app), e.cm.ColdExecCost(app.Exec)
}

// Exec asynchronously runs app inside c. The container must be
// Available; it transitions to NotAvailable for the duration and back
// to Available on completion (the caller — the pool — decides whether
// to clean and re-admit it). done receives the execution duration, and
// c.Phases the nominal split of it.
func (e *Engine) Exec(c *Container, app workload.App, done func(time.Duration, error)) {
	if done == nil {
		panic("container: Exec requires a completion callback")
	}
	if err := app.Validate(); err != nil {
		done(0, err)
		return
	}
	if c.reserved {
		// The holder of the reservation is executing; consume it.
		c.reserved = false
	} else if c.state != Available {
		done(0, fmt.Errorf("container: exec on %s in state %v", c.ID, c.state))
		return
	}
	if e.ExecHook != nil {
		if err := e.ExecHook(c, app); err != nil {
			// Leave the container usable: a failed exec (e.g. an OOM
			// kill of the function process) does not take the
			// container down. The caller (pool/gateway) decides whether
			// to quarantine it. Invariant: the failure path runs before
			// any active CPU/mem accounting, so a failed exec — even
			// repeated on the same container — leaves activeCPUPct and
			// activeMemMB untouched and the container Available.
			e.setState(c, Available)
			done(0, fmt.Errorf("container: exec failed: %w", err))
			return
		}
	}
	wasWarm := c.warmFor(app.Name)
	c.initPhase, c.execPhase = e.phases(&app, wasWarm)
	cost := e.jitter(c.initPhase + c.execPhase)
	e.setState(c, NotAvailable)
	e.activeCPUPct += app.CPUPct
	e.activeMemMB += app.MemMB
	// Resource contention (opt-in): when aggregate demand exceeds the
	// knee, executions stretch proportionally — processor sharing in
	// its crudest useful form. The load is sampled at admission; a
	// finer model would re-scale in-flight work, but admission-time
	// stretching already produces the burst latency spikes the paper
	// reports.
	if knee := e.cm.C.ContentionKneePct; knee > 0 && e.activeCPUPct > knee {
		cost = time.Duration(float64(cost) * e.activeCPUPct / knee)
	}
	c.exec = pendingExec{app: app.Name, cpuPct: app.CPUPct, memMB: app.MemMB, cost: cost, warm: wasWarm, done: done}
	e.sched.After(cost, c.execEnd)
}

// endExec finishes c's exec in flight.
func (e *Engine) endExec(c *Container) {
	x := c.exec
	c.exec = pendingExec{}
	e.activeCPUPct -= x.cpuPct
	e.activeMemMB -= x.memMB
	e.setState(c, Available)
	c.markWarm(x.app)
	c.Execs++
	c.Volume.Dirty = true
	c.LastUsedAt = e.sched.Now()
	if x.warm {
		e.stats.WarmStarts++
		e.stats.Reused++
	} else {
		e.stats.ColdStarts++
	}
	x.done(x.cost, nil)
}

// Warmup asynchronously pre-initialises app inside c (used by the
// adaptive controller to pre-warm predicted demand). It is an Exec
// variant that pays only initialisation, not a request execution.
func (e *Engine) Warmup(c *Container, app workload.App, done func(error)) {
	if done == nil {
		panic("container: Warmup requires a completion callback")
	}
	if c.state != Available {
		done(fmt.Errorf("container: warmup on %s in state %v", c.ID, c.state))
		return
	}
	if c.warmFor(app.Name) {
		done(nil)
		return
	}
	cost := e.jitter(e.initCost(&app))
	e.setState(c, NotAvailable)
	e.sched.After(cost, func() {
		e.setState(c, Available)
		c.markWarm(app.Name)
		done(nil)
	})
}

// CleanVolume asynchronously wipes the container's volume and mounts a
// fresh generation (§IV.B "Used Container Cleanup": delete files in
// the old volume, mount a new one).
func (e *Engine) CleanVolume(c *Container, done func(error)) {
	if done == nil {
		panic("container: CleanVolume requires a completion callback")
	}
	if c.state == Stopped {
		done(fmt.Errorf("container: cleaning volume of stopped %s", c.ID))
		return
	}
	if !c.Volume.Dirty {
		done(nil)
		return
	}
	if c.clean.done != nil {
		done(fmt.Errorf("container: cleaning volume of %s twice at once", c.ID))
		return
	}
	cost := e.jitter(e.cm.VolumeCleanupCost() + e.cm.VolumeSetupCost())
	c.clean = pendingClean{prev: c.state, done: done}
	e.setState(c, NotAvailable)
	e.sched.After(cost, c.cleanEnd)
}

// endClean finishes c's volume cleanup in flight.
func (e *Engine) endClean(c *Container) {
	x := c.clean
	c.clean = pendingClean{}
	e.setState(c, x.prev)
	c.Volume.Generation++
	c.Volume.Dirty = false
	e.stats.CleanedVols++
	x.done(nil)
}

// Repurpose asynchronously re-keys an idle container as a zygote for a
// different runtime spec — the lease mechanism behind inter-function
// sharing (Pagurus-style). The volume is wiped and remounted exactly
// like Algorithm 2's used-container cleanup, the image-layer delta
// between the container's current image and the new spec's is pulled
// (cache-scaled; zero when the images match), and the application warm
// state is dropped: the container skips engine/network/volume/watchdog
// setup entirely, but the next execution pays app initialisation
// again. On completion the container is Available under its NEW spec;
// the caller owns re-indexing it.
func (e *Engine) Repurpose(c *Container, spec *Spec, done func(error)) {
	if done == nil {
		panic("container: Repurpose requires a completion callback")
	}
	if c.state != Available {
		done(fmt.Errorf("container: repurposing %s in state %v", c.ID, c.state))
		return
	}
	missing := e.cache.MissingMB(spec.Image)
	cost := e.jitter(e.cm.VolumeCleanupCost() + e.cm.VolumeSetupCost() +
		e.cm.PullCost(missing) + e.cm.UnpackCost(missing))
	e.KeyOf(spec) // the container's copy of the spec carries the handle
	e.setState(c, NotAvailable)
	e.sched.After(cost, func() {
		e.cache.Admit(spec.Image)
		e.stats.PulledMB += missing
		c.Spec = *spec
		c.warm = c.warm[:0]
		c.Volume.Generation++
		c.Volume.Dirty = false
		e.setState(c, Available)
		e.stats.CleanedVols++
		e.stats.Repurposed++
		done(nil)
	})
}

// Stop asynchronously terminates the container, deleting its volume
// ("to avoid resource waste and zombie files, the corresponding
// volumes are deleted once the containers stop execution").
func (e *Engine) Stop(c *Container, done func()) {
	if done == nil {
		done = func() {}
	}
	if c.state == Stopped {
		done()
		return
	}
	cost := e.jitter(e.cm.EngineTeardownCost() + c.Spec.Net.TeardownCost(e.cm))
	e.setState(c, NotAvailable)
	e.sched.After(cost, func() {
		e.setState(c, Stopped)
		c.Volume.Deleted = true
		e.stats.Stopped++
		delete(e.containers, c.ID)
		done()
	})
}
