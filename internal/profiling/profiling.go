// Package profiling gives the command-line tools the diagnostic
// -cpuprofile and -memprofile flags. It measures the process on the wall
// clock, so it stays outside the deterministic packages; profiles go only
// to the named files, never to stdout, and a profiled run prints the same
// bytes as an unprofiled one.
//
// Usage in a command's main:
//
//	prof := profiling.Register(flag.CommandLine)
//	flag.Parse()
//	if err := prof.Start(); err != nil { ... }
//	...
//	prof.Exit(code) // in place of os.Exit, on every path after Start
package profiling

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the profile destinations registered on a flag set.
type Flags struct {
	cpuPath string
	memPath string
	cpuFile *os.File
}

// Register adds -cpuprofile and -memprofile to fs.
func Register(fs *flag.FlagSet) *Flags {
	p := &Flags{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a CPU profile to this file (diagnostic; never changes output)")
	fs.StringVar(&p.memPath, "memprofile", "", "write an allocation profile to this file at exit (diagnostic; never changes output)")
	return p
}

// Start begins CPU profiling when -cpuprofile names a file.
func (p *Flags) Start() error {
	if p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(p.cpuPath)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the start error is the one to report
		return fmt.Errorf("profiling: start CPU profile: %w", err)
	}
	p.cpuFile = f
	return nil
}

// Stop ends CPU profiling and writes the allocation profile, each if
// requested. Later calls do nothing.
func (p *Flags) Stop() error {
	var errs []error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("profiling: close CPU profile: %w", err))
		}
		p.cpuFile = nil
	}
	if p.memPath != "" {
		errs = append(errs, writeAllocs(p.memPath))
		p.memPath = ""
	}
	return errors.Join(errs...)
}

// writeAllocs writes the allocation profile (every allocation since the
// process started, with what is still live) to path.
func writeAllocs(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	runtime.GC() // bring the live-heap figures up to date
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("profiling: write allocation profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("profiling: close allocation profile: %w", err)
	}
	return nil
}

// Exit stops profiling and exits with code. A profile that could not be
// written is reported on stderr and turns a zero exit code into 2, the
// tools' code for an environment error; a nonzero code is kept.
func (p *Flags) Exit(code int) {
	if err := p.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}
