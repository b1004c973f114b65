package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profileFlags is the shared -format, -cpuprofile and -memprofile wiring
// for the simulation subcommands (serve, cluster, sweep): the simulator
// core is fast enough that finding the next bottleneck needs pprof, so
// the CLI exposes the same profiling surface `go test -cpuprofile` gives
// the benchmarks.
type profileFlags struct {
	format *string
	cpu    *string
	mem    *string
}

// addProfileFlags registers the report and profiling flags on a
// subcommand's flag set; call before fs.Parse.
func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	return &profileFlags{
		format: fs.String("format", "text", "output format (text|csv|json)"),
		cpu:    fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file"),
		mem:    fs.String("memprofile", "", "write a pprof heap profile to this file at exit"),
	}
}

// parse parses the subcommand's args, rejects an unknown -format before
// any work runs (a typo must not cost a simulation or a grid), and
// starts profiling; defer the returned stop.
func (p *profileFlags) parse(fs *flag.FlagSet, args []string) (stop func(), err error) {
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch *p.format {
	case "text", "csv", "json":
	default:
		return nil, fmt.Errorf("unknown format %q (text|csv|json)", *p.format)
	}
	return p.start()
}

// start begins CPU profiling when requested and returns the stop function
// to defer: it ends the CPU profile and writes the heap profile. Profile
// write failures at stop are reported to stderr rather than clobbering
// the command's own error — by then the simulation output is already out.
func (p *profileFlags) start() (stop func(), err error) {
	var cpuFile *os.File
	if *p.cpu != "" {
		cpuFile, err = os.Create(*p.cpu)
		if err != nil {
			return nil, fmt.Errorf("create -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start -cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "optimus: close -cpuprofile: %v\n", err)
			}
		}
		if *p.mem == "" {
			return
		}
		f, err := os.Create(*p.mem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optimus: create -memprofile: %v\n", err)
			return
		}
		defer f.Close()
		// An up-to-date heap picture: collect garbage so the profile shows
		// live memory, not whatever the last GC cycle left behind.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "optimus: write -memprofile: %v\n", err)
		}
	}, nil
}
