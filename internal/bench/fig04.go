package bench

import (
	"fmt"

	"hotc/internal/config"
	"hotc/internal/container"
	"hotc/internal/costmodel"
	"hotc/internal/network"
	"hotc/internal/workload"
)

// Fig04 reproduces the §II.C motivation measurements:
//
//	(a) container launch time on the local server and the edge device,
//	    with locally stored versus remote images;
//	(b) cold versus hot execution of the S3-download program across
//	    languages (Go cold = 3.06x hot; Java cold doubles its already
//	    long execution);
//	(c) the build time of customised networks during container boot
//	    (bridge/host close to none, container mode about half,
//	    overlay/routing up to 23x host mode).
func Fig04() *Report {
	r := NewReport("fig04", "container launch, cold-vs-hot execution by language, network setup")

	// (a) launch time by profile and image locality.
	ta := r.NewTable("Fig. 4(a) container launch time (alpine, bridge network)",
		"host", "image", "launch (ms)")
	for _, prof := range []costmodel.Profile{costmodel.Server(), costmodel.EdgePi()} {
		for _, cached := range []bool{true, false} {
			env := engineOnly(prof, cached)
			spec := mustSpec(env, config.Runtime{Image: "alpine:3.9"})
			label := "local (cached)"
			if !cached {
				label = "remote (pull)"
			}
			ta.AddRow(prof.Name, label, ms(env.Engine.StartCost(spec)))
		}
	}

	// (b) cold vs hot execution per language.
	tb := r.NewTable("Fig. 4(b) S3-download program: cold vs hot execution",
		"language", "hot (ms)", "cold (ms)", "cold/hot")
	env := engineOnly(costmodel.Server(), true)
	for _, lang := range workload.Languages() {
		app := workload.S3Download(lang)
		spec := mustSpec(env, config.Runtime{Image: app.Image})
		m := env.Engine.Model()
		hot := m.ExecCost(app.Exec) + m.WatchdogShimCost()
		coldTotal := env.Engine.StartCost(spec) + m.InitCost(app.InitCost()) +
			m.ColdExecCost(app.Exec) + m.WatchdogShimCost()
		tb.AddRow(lang.String(), ms(hot), ms(coldTotal), f2(float64(coldTotal)/float64(hot)))
	}
	r.Notef("paper anchors: Go cold/hot = 3.06x; Java cold ~2x its hot execution and the longest absolute latency")

	// (c) network setup during boot.
	tc := r.NewTable("Fig. 4(c) container boot time by network mode (server)",
		"mode", "boot (ms)", "vs none", "vs host")
	cm := costmodel.New(costmodel.Server())
	none := network.None.BootCost(cm)
	hostBoot := network.Host.BootCost(cm)
	for _, m := range network.Modes() {
		boot := m.BootCost(cm)
		tc.AddRow(m.String(), ms(boot),
			f2(float64(boot)/float64(none)),
			f2(float64(boot)/float64(hostBoot)))
	}
	r.Notef("paper shape: bridge/host ~= none; container mode ~0.5x none; overlay up to 23x host")
	return r
}

// engineOnly wires an Env with just engine/registry/host (cold policy,
// unused), optionally pre-pulling images.
func engineOnly(prof costmodel.Profile, prePull bool) *Env {
	return NewEnv(PolicyCold, EnvOptions{Profile: prof, PrePull: prePull})
}

func mustSpec(env *Env, rt config.Runtime) *container.Spec {
	spec, err := container.ResolveSpec(rt, env.Registry)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	return spec
}
