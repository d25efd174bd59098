// Package sharing implements the policy half of inter-function
// warm-container sharing (Pagurus, arXiv:2108.11240): deciding which
// functions are lenders or renters from the controller's demand
// history, and which pairs of functions may share a container at all.
//
// The package is mechanism-free on purpose: neither the lease path
// (wipe, re-specialize, re-key) nor any locking lives here. Only the
// live gateway consults it today. The simulated pool does not — it
// picks its lender with a rule of its own (pool.shareCandidate: the
// least recently used container of any other key, no roles, no
// compatibility policy); putting both substrates behind this package's
// rules is the second half of ROADMAP item 3.
package sharing

import (
	"fmt"
	"math"
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

// ClassifierConfig tunes the lender/renter classifier.
type ClassifierConfig struct {
	// Alpha is the EWMA smoothing factor over forecast error and idle
	// surplus (default 0.3): high enough to follow workload shifts,
	// low enough that one noisy interval cannot flip a role.
	Alpha float64
	// LendThreshold is the smoothed over-forecast (forecast − demand)
	// at or above which a function becomes a lender (default 1).
	LendThreshold float64
	// RentThreshold is the smoothed under-forecast at or below which a
	// function becomes a renter (default −0.5: renting is cheap to be
	// wrong about, lending is not).
	RentThreshold float64
	// SurplusThreshold classifies a lender from persistent idle
	// surplus (idle − ⌈forecast⌉) even when the forecast itself tracks
	// demand — headroom and hysteresis strand containers the forecast
	// error never sees (default 1).
	SurplusThreshold float64
	// MinTicks is how many control intervals must be observed before
	// any non-neutral classification (default 3).
	MinTicks int
}

func (c ClassifierConfig) withDefaults() ClassifierConfig {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.LendThreshold <= 0 {
		c.LendThreshold = 1
	}
	if c.RentThreshold >= 0 {
		c.RentThreshold = -0.5
	}
	if c.SurplusThreshold <= 0 {
		c.SurplusThreshold = 1
	}
	if c.MinTicks <= 0 {
		c.MinTicks = 3
	}
	return c
}

// Classifier derives one function's sharing role from its control
// history. The zero value is usable (defaults applied on first
// Observe); it is not goroutine-safe — callers hold their own shard or
// simulation lock, matching the controller state it feeds on.
type Classifier struct {
	cfg         ClassifierConfig
	inited      bool
	ticks       int
	errEWMA     float64 // forecast − demand, smoothed
	surplusEWMA float64 // idle − ⌈forecast⌉, smoothed
	role        Role
}

// NewClassifier builds a classifier with explicit tuning.
func NewClassifier(cfg ClassifierConfig) *Classifier {
	return &Classifier{cfg: cfg.withDefaults(), inited: true}
}

// Observe feeds one control interval: the forecast that had been made
// for it, the demand actually observed, and the idle pool size at the
// tick. It returns the (possibly updated) role.
//
// A function is a lender when it is persistently over-forecasted OR
// persistently carries idle surplus beyond its forecast; it is a
// renter when persistently under-forecasted. Both thresholds apply
// only after MinTicks intervals, and the two sides are deliberately
// asymmetric: lending a container that turns out to be needed costs a
// real cold start, renting one that was not needed costs nothing.
func (c *Classifier) Observe(forecast, demand, idle float64) Role {
	if !c.inited {
		c.cfg = c.cfg.withDefaults()
		c.inited = true
	}
	a := c.cfg.Alpha
	err := forecast - demand
	surplus := idle - math.Ceil(forecast)
	if c.ticks == 0 {
		c.errEWMA, c.surplusEWMA = err, surplus
	} else {
		c.errEWMA = a*err + (1-a)*c.errEWMA
		c.surplusEWMA = a*surplus + (1-a)*c.surplusEWMA
	}
	c.ticks++
	if c.ticks < c.cfg.MinTicks {
		c.role = RoleNeutral
		return c.role
	}
	switch {
	case c.errEWMA <= c.cfg.RentThreshold:
		c.role = RoleRenter
	case c.errEWMA >= c.cfg.LendThreshold || c.surplusEWMA >= c.cfg.SurplusThreshold:
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

// Ticks returns how many control intervals have been observed.
func (c *Classifier) Ticks() int { return c.ticks }

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
