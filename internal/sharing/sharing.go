// Package sharing implements the policy half of inter-function
// warm-container sharing (Pagurus, arXiv:2108.11240): deciding which
// functions are lenders or renters from the controller's demand
// history, which pairs of functions may share a container at all, and
// — Pick — whose idle runtime a renter takes.
//
// The package is mechanism-free on purpose: neither the lease path
// (wipe, re-specialize, re-key) nor any locking lives here. Both
// substrates choose their lender with Pick: the live gateway offers
// each other function's warm list, with its role, forecast and runtime
// key; the simulated pool offers each other runtime key's least
// recently used container, every owner neutral with no forecast or key
// and every pair compatible (the simulator keeps no classifier yet, and
// its same-key reuse is the pool's own exact hit).
package sharing

import (
	"fmt"
	"math"
	"time"
)

// Role is a function's sharing classification.
type Role int

const (
	// RoleNeutral is the starting state: not enough evidence either
	// way. Neutral functions may still lend idle surplus (a fresh
	// renter must be able to rent before any classification exists),
	// but only above their own forecast.
	RoleNeutral Role = iota
	// RoleLender marks a persistently over-forecasted function: its
	// idle containers are offered as zygotes first.
	RoleLender
	// RoleRenter marks a persistently under-forecasted function: it
	// never lends, and its cold path tries to rent before booting.
	RoleRenter
)

// String names the role for traces and /system/predictions.
func (r Role) String() string {
	switch r {
	case RoleLender:
		return "lender"
	case RoleRenter:
		return "renter"
	default:
		return "neutral"
	}
}

// ClassifierConfig is empty: the classifier runs on fixed constants.
// NewClassifier still takes one because the benchmark harness's
// adapter passes it.
type ClassifierConfig struct{}

// The classifier's fixed constants.
const (
	// alpha is the EWMA smoothing factor over forecast error and idle
	// surplus: high enough to follow workload shifts, low enough that
	// one noisy interval cannot flip a role.
	alpha = 0.3
	// lendThreshold is the smoothed over-forecast (forecast − demand)
	// at or above which a function becomes a lender.
	lendThreshold = 1
	// rentThreshold is the smoothed under-forecast at or below which a
	// function becomes a renter: renting is cheap to be wrong about,
	// lending is not.
	rentThreshold = -0.5
	// surplusThreshold classifies a lender from persistent idle surplus
	// (idle − ⌈forecast⌉) even when the forecast itself tracks demand —
	// headroom and hysteresis strand containers the forecast error
	// never sees.
	surplusThreshold = 1
	// minTicks is how many control intervals must be observed before
	// any non-neutral classification.
	minTicks = 3
)

// Classifier derives one function's sharing role from its control
// history. The zero value is ready to use; it is not goroutine-safe —
// callers hold their own shard or simulation lock, matching the
// controller state it feeds on.
type Classifier struct {
	ticks       int
	errEWMA     float64 // forecast − demand, smoothed
	surplusEWMA float64 // idle − ⌈forecast⌉, smoothed
	role        Role
}

// NewClassifier returns a zero classifier.
func NewClassifier(ClassifierConfig) *Classifier { return &Classifier{} }

// Observe feeds one control interval: the forecast that had been made
// for it, the demand actually observed, and the idle pool size at the
// tick. It returns the (possibly updated) role.
//
// A function is a lender when it is persistently over-forecasted OR
// persistently carries idle surplus beyond its forecast; it is a
// renter when persistently under-forecasted. Both thresholds apply
// only after minTicks intervals, and the two sides are deliberately
// asymmetric: lending a container that turns out to be needed costs a
// real cold start, renting one that was not needed costs nothing.
func (c *Classifier) Observe(forecast, demand, idle float64) Role {
	err := forecast - demand
	surplus := idle - math.Ceil(forecast)
	if c.ticks == 0 {
		c.errEWMA, c.surplusEWMA = err, surplus
	} else {
		c.errEWMA = alpha*err + (1-alpha)*c.errEWMA
		c.surplusEWMA = alpha*surplus + (1-alpha)*c.surplusEWMA
	}
	c.ticks++
	if c.ticks < minTicks {
		c.role = RoleNeutral
		return c.role
	}
	switch {
	case c.errEWMA <= rentThreshold:
		c.role = RoleRenter
	case c.errEWMA >= lendThreshold || c.surplusEWMA >= surplusThreshold:
		c.role = RoleLender
	default:
		c.role = RoleNeutral
	}
	return c.role
}

// Role returns the current classification.
func (c *Classifier) Role() Role { return c.role }

// ForecastError returns the smoothed forecast error (forecast −
// demand): positive means over-forecasted.
func (c *Classifier) ForecastError() float64 { return c.errEWMA }

// PolicyMode selects the compatibility rule between lender and renter.
type PolicyMode int

const (
	// ModeSameImage requires lender and renter to declare the same
	// container image — the stand-in for "same language and runtime
	// version": the rented container's layers and interpreter are
	// exactly what the renter would have booted, so only the volume
	// wipe and the renter's app init are paid.
	ModeSameImage PolicyMode = iota
	// ModeAny lends across images: the renter additionally pays the
	// image-layer delta its own boot would have pulled (cache-scaled).
	// Cheaper than a full boot, dearer than a same-image lease.
	ModeAny
)

// String names the mode for flags and stats.
func (m PolicyMode) String() string {
	switch m {
	case ModeAny:
		return "any"
	default:
		return "same-image"
	}
}

// ParseMode resolves a -share-policy flag value. Empty means the
// same-image default.
func ParseMode(s string) (PolicyMode, error) {
	switch s {
	case "", "same-image":
		return ModeSameImage, nil
	case "any":
		return ModeAny, nil
	default:
		return ModeSameImage, fmt.Errorf("sharing: unknown policy %q (want same-image|any)", s)
	}
}

// Candidate is the slice of a function's deployment the policy judges:
// what it runs on and whether it opted out.
type Candidate struct {
	// Image is the declared container image ("python:3.8"); empty
	// means no image modelling, which only matches other empty images
	// under ModeSameImage.
	Image string
	// MemoryMB is the declared memory class (0 = unconstrained).
	MemoryMB int
	// Key is the runtime key, the pool's identity of a container
	// (config.Runtime.Key); empty matches nothing. Owners of the
	// renter's own key lend first and keep no reserve (see Offer.Lends).
	Key string
	// Shareable is the per-deploy opt-in (default true at the deploy
	// layer); false removes the function from both sides of sharing.
	Shareable bool
}

// Denial reasons returned by Policy.Compatible, used as metric labels
// and stats keys.
const (
	DenyOptOut = "opt_out"
	DenyImage  = "image_mismatch"
	DenyMemory = "memory_class"
)

// Policy gates which function pairs may share a container.
type Policy struct {
	Mode PolicyMode
}

// Compatible reports whether renter may take over one of lender's
// containers, with a denial reason when not.
//
// The memory rule: a lender with MemoryMB 0 is unconstrained and can
// host anyone; otherwise the renter must declare a class and fit
// inside the lender's (a container sized for 512 MB cannot suddenly
// promise 1 GB).
func (p Policy) Compatible(renter, lender Candidate) (bool, string) {
	if !renter.Shareable || !lender.Shareable {
		return false, DenyOptOut
	}
	if p.Mode == ModeSameImage && renter.Image != lender.Image {
		return false, DenyImage
	}
	if lender.MemoryMB > 0 && (renter.MemoryMB <= 0 || renter.MemoryMB > lender.MemoryMB) {
		return false, DenyMemory
	}
	return true, ""
}

// Offer is one owner's lendable stock, as Pick judges it.
type Offer struct {
	Role     Role          // lenders are asked before neutral owners; a renter lends only to its own key
	Owner    Candidate     // the owner's deployment, as the policy judges it
	Idle     int           // idle instances; 0 offers nothing
	Forecast float64       // a neutral owner keeps ⌈Forecast⌉ idle instances from other keys
	IdleFor  time.Duration // how long the longest-idle instance, the one lent, has been idle
}

// The rungs of the lender order: Pick asks each in turn.
const (
	rungSameKey = iota // the renter's own runtime key, whatever the owner's role
	rungLender         // a classified lender of another key
	rungNeutral        // a neutral owner of another key
	rungs
)

// rung is o's place in renter's lender order, or -1 for a renter-role
// owner of another key, which never lends.
func (o Offer) rung(renter Candidate) int {
	switch {
	case renter.Key != "" && o.Owner.Key == renter.Key:
		return rungSameKey
	case o.Role == RoleLender:
		return rungLender
	case o.Role == RoleNeutral:
		return rungNeutral
	}
	return -1
}

// Lends reports whether o may lend its longest-idle instance to renter,
// whatever the other offers, or that only the policy refused it. An
// owner of the renter's own runtime key keeps no reserve, whatever its
// role: a request of that key is the key's own demand, and its
// instances are interchangeable. The idle grace holds on every rung: it
// guards a busy owner's working set.
func (o Offer) Lends(p Policy, renter Candidate, grace time.Duration) (ok, denied bool) {
	rung := o.rung(renter)
	if rung < 0 {
		return false, false
	}
	if compatible, _ := p.Compatible(renter, o.Owner); !compatible {
		return false, true
	}
	reserve := 0 // the renter's own key and a classified lender keep nothing back
	if rung == rungNeutral {
		reserve = int(math.Ceil(o.Forecast))
	}
	return o.Idle > reserve && o.IdleFor >= grace, false
}

// Pick is the one lender rule: it chooses the offer renter rents from,
// or -1. Owners of the renter's own runtime key are tried first, then
// classified lenders, then neutral owners; among a rung's offers that
// Lends allows — nothing idle for less than grace, its owner's working
// set — the longest-idle instance wins, the one most likely to expire
// unused, and a tie goes to the earlier offer, so callers hand the
// offers over in their tie order. With no pick, denied reports that the
// policy refused the renter or an owner.
func Pick(p Policy, renter Candidate, offers []Offer, grace time.Duration) (i int, denied bool) {
	if !renter.Shareable {
		return -1, true
	}
	for rung := 0; rung < rungs; rung++ {
		best := -1
		for j, o := range offers {
			if o.rung(renter) != rung {
				continue
			}
			ok, refused := o.Lends(p, renter, grace)
			denied = denied || refused
			if ok && (best < 0 || o.IdleFor > offers[best].IdleFor) {
				best = j
			}
		}
		if best >= 0 {
			return best, false
		}
	}
	return -1, denied
}
