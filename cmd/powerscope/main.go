// Command powerscope profiles a workload on the simulated testbed and
// prints the two-stage energy profile (the paper's Figure 2 format): total
// energy by process, then per-procedure detail.
//
// Usage:
//
//	powerscope [-workload video|speech|map|web|composite] [-seconds 30] [-seed 1]
//	powerscope -workload composite -diff-against video   # profile both, print the delta
//
// A -seconds below 1 or an unknown -workload or -diff-against name is a
// usage error: exit status 2 before any run, with nothing on stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"odyssey/internal/app/env"
	"odyssey/internal/app/mapview"
	"odyssey/internal/app/speech"
	"odyssey/internal/app/video"
	"odyssey/internal/app/web"
	"odyssey/internal/powerscope"
	"odyssey/internal/sim"
	"odyssey/internal/workload"
)

// workloads are the profilable workloads by name (workloadNames lists
// them); each body runs until done reports true.
var workloads = map[string]func(apps *workload.Apps, p *sim.Proc, done func() bool){
	"video": func(apps *workload.Apps, p *sim.Proc, done func() bool) {
		apps.VideoLoop(p, video.Clip{Name: "profiled", Length: 15 * time.Second}, done)
	},
	"speech": func(apps *workload.Apps, p *sim.Proc, done func() bool) {
		us := speech.StandardUtterances()
		for i := 0; !done(); i++ {
			apps.Speech.Recognize(p, us[i%len(us)])
			p.Sleep(2 * time.Second)
		}
	},
	"map": func(apps *workload.Apps, p *sim.Proc, done func() bool) {
		ms := mapview.StandardMaps()
		for i := 0; !done(); i++ {
			apps.Map.View(p, ms[i%len(ms)])
		}
	},
	"web": func(apps *workload.Apps, p *sim.Proc, done func() bool) {
		imgs := web.StandardImages()
		for i := 0; !done(); i++ {
			apps.Web.Fetch(p, imgs[i%len(imgs)])
		}
	},
	"composite": func(apps *workload.Apps, p *sim.Proc, done func() bool) {
		for i := 0; !done(); i++ {
			apps.CompositeIteration(p, i)
		}
	},
}

const workloadNames = "video, speech, map, web, composite"

// unknownWorkload reports a workload name no flag accepts and exits 2.
func unknownWorkload(flagName, name string) {
	fmt.Fprintf(os.Stderr, "%s: unknown workload %q; known: %s\n", flagName, name, workloadNames)
	os.Exit(2)
}

func main() {
	workloadName := flag.String("workload", "video", "workload to profile: "+workloadNames)
	seconds := flag.Int("seconds", 30, "profiling duration (virtual seconds, at least 1)")
	seed := flag.Int64("seed", 1, "simulation seed")
	mgmt := flag.Bool("power-mgmt", true, "enable hardware power management")
	symbols := flag.Bool("symbols", false, "also print the symbol table")
	diffAgainst := flag.String("diff-against", "", "also profile this workload and print the per-process energy delta")
	flag.Parse()

	// Reject bad input before any run, so a usage error prints no profile.
	if *seconds < 1 {
		fmt.Fprintf(os.Stderr, "-seconds must be at least 1, got %d\n", *seconds)
		os.Exit(2)
	}
	if workloads[*workloadName] == nil {
		unknownWorkload("-workload", *workloadName)
	}
	if *diffAgainst != "" && workloads[*diffAgainst] == nil {
		unknownWorkload("-diff-against", *diffAgainst)
	}

	prof := profileWorkload(*workloadName, *seconds, *seed, *mgmt, *symbols)
	if *diffAgainst != "" {
		before := profileWorkload(*diffAgainst, *seconds, *seed, *mgmt, false)
		fmt.Printf("Energy delta: %s -> %s\n\n", *diffAgainst, *workloadName)
		fmt.Println(powerscope.Diff(before, prof).String())
	}
}

// profileWorkload runs one known workload under the profiler and prints
// (and returns) its energy profile.
func profileWorkload(workloadName string, seconds int, seed int64, mgmt, symbols bool) *powerscope.EnergyProfile {
	rig := env.NewRig(seed, 1)
	if mgmt {
		rig.EnablePowerMgmt()
	}
	pf := powerscope.NewProfiler(rig.K, rig.M.Acct, 1666*time.Microsecond, 150*time.Microsecond)

	paths := map[int]string{powerscope.KernelPID: powerscope.KernelBinary}
	register := func(principal, path string) {
		p := pf.SysMon.Register(principal, path)
		p.Exec(pf.Symbols.Declare(path, "_main"))
		paths[p.PID] = path
	}
	register(video.PrincipalXanim, "/usr/odyssey/bin/xanim")
	register(video.PrincipalX, "/usr/X11R6/bin/X")
	register(video.PrincipalOdyssey, "/usr/odyssey/bin/odyssey")
	register(speech.PrincipalJanus, "/usr/odyssey/bin/janus")
	register(speech.PrincipalFrontEnd, "/usr/odyssey/bin/speech-fe")
	register(mapview.PrincipalAnvil, "/usr/odyssey/bin/anvil")
	register(web.PrincipalNetscape, "/usr/local/bin/netscape")
	register(web.PrincipalProxy, "/usr/odyssey/bin/proxy")

	dur := time.Duration(seconds) * time.Second
	done := false
	rig.K.At(dur, func() { done = true })

	apps := workload.NewApps(rig)
	body := workloads[workloadName]
	rig.K.Spawn("w", func(p *sim.Proc) { body(apps, p, func() bool { return done }) })

	pf.Start()
	rig.K.Run(dur + 30*time.Second)
	pf.Stop()

	prof := powerscope.Correlate(pf.Samples(), pf.Symbols, paths)
	fmt.Printf("PowerScope profile: %s workload, %v of virtual time, %d samples\n\n",
		workloadName, dur, len(pf.Samples()))
	fmt.Println(prof.String())
	if symbols {
		fmt.Println("Symbol table:")
		fmt.Println(pf.Symbols.String())
	}
	return prof
}
