package workload

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// StartCPUProfile starts a CPU profile of the calling program, written to
// path, for a driver's -cpuprofile flag: the driver starts it when its timed
// phase begins and calls stop when the phase ends, so the profile leaves out
// graph generation and loading. An empty path profiles nothing, and stop
// then does nothing. Read the file with `go tool pprof -top <binary> <path>`.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
