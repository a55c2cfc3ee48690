package main

import (
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	gdi "github.com/gdi-go/gdi"
	"github.com/gdi-go/gdi/internal/fabric/tcp"
)

// The tcp workload runs the engine over internal/fabric/tcp: the benchmark
// re-executes itself once per rank, the rank processes form a loopback mesh,
// and each drives one closed-loop client against its own rank. The launcher
// generates no load; it waits, merges the rank processes' reports and checks
// them. A report travels as one gob value on the rank process's standard
// output.

// childMode says how far a rank process goes.
type childMode string

const (
	modeSetup childMode = "setup" // connect, create, load, report, exit
	modeRun   childMode = "run"   // ... then warm up, measure and check
	modeProbe childMode = "probe" // connect and time the fabric's operations
)

// childReport is what one rank process tells the launcher.
type childReport struct {
	Rank int
	// SetupS is the time from dialing the mesh to the loaded database.
	SetupS                    float64
	LoadVerticesS, LoadEdgesS float64
	UsedBlocks                int64 // summed over ranks
	Warm, Untraced, Traced    *phaseResult
	// Vertices is the vertex count after the run, summed over ranks.
	Vertices int64
	Mem      memory
	// Probes holds the fabric probe medians (modeProbe, rank 0 only).
	Probes map[string]metric
}

// freePorts reserves n loopback ports by binding and releasing them; the rank
// processes bind them again a moment later.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = lis.Addr().String()
		defer lis.Close()
	}
	return addrs, nil
}

// launchMesh starts one rank process per rank of s in the given mode, waits
// for all of them and returns their reports by rank. Every process it starts
// has ended when it returns.
func launchMesh(s spec, o options, mode childMode) ([]*childReport, error) {
	peers, err := freePorts(s.ranks)
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if o.trace {
		traceArg = "1"
	}
	cmds := make([]*exec.Cmd, s.ranks)
	reports := make([]*childReport, s.ranks)
	errs := make(chan error, s.ranks)
	for r := range cmds {
		cmd := exec.Command(o.exe,
			"-tcp-child", strconv.Itoa(r)+","+strings.Join(peers, ","), "-tcp-mode", string(mode),
			"-workload", s.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", traceArg,
			"-scale", strconv.Itoa(o.scale), "-warmup", strconv.Itoa(o.warmupOps), "-probe-budget", o.probeBudget.String())
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			for _, c := range cmds[:r] {
				c.Process.Kill()
				c.Wait()
			}
			return nil, fmt.Errorf("starting rank %d: %w", r, err)
		}
		cmds[r] = cmd
		go func(r int) {
			rep := &childReport{}
			if err := gob.NewDecoder(out).Decode(rep); err != nil {
				errs <- fmt.Errorf("rank %d sent no report: %w", r, err)
				return
			}
			reports[r] = rep
			errs <- nil
		}(r)
	}
	var firstErr error
	for range cmds {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
			for _, c := range cmds { // a rank died: its peers would wait for it forever
				c.Process.Kill()
			}
		}
	}
	for r, c := range cmds {
		if err := c.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return reports, firstErr
}

// runTCP runs a transactional workload over the TCP mesh.
func runTCP(s spec, o options, res *result) error {
	var setups []float64
	var reports []*childReport
	for i := 0; i < max(1, o.setups); i++ {
		mode := modeSetup
		if i == max(1, o.setups)-1 {
			mode = modeRun
		}
		var err error
		if reports, err = launchMesh(s, o, mode); err != nil {
			return err
		}
		slowest := 0.0
		for _, rep := range reports {
			slowest = max(slowest, rep.SetupS)
		}
		setups = append(setups, slowest)
	}
	ph := &phases{warm: &phaseResult{}, untraced: &phaseResult{}}
	if o.trace {
		ph.traced = &phaseResult{}
	}
	var mem memory
	for _, rep := range reports {
		ph.warm.merge(rep.Warm, true)
		ph.untraced.merge(rep.Untraced, true)
		if o.trace {
			ph.traced.merge(rep.Traced, true)
		}
		mem.HeapMiB += rep.Mem.HeapMiB
		mem.PeakMiB += rep.Mem.PeakMiB
	}
	r0 := reports[0]
	e := &env{s: s, cfg: s.graph(), usedBlocks: r0.UsedBlocks, loadVerticesS: r0.LoadVerticesS, loadEdgesS: r0.LoadEdgesS}
	report(e, o, res, ph, median(setups), mem)
	if want := int64(e.cfg.NumVertices()) + ph.vertices(); r0.Vertices != want {
		res.failf("vertices after run (allreduced): %d, want loaded + inserts - deletes = %d", r0.Vertices, want)
	}
	return nil
}

// tcpChild is one rank process. arg is "rank,peer0,peer1,...".
func tcpChild(arg string, mode childMode, workload string, o options) int {
	parts := strings.Split(arg, ",")
	rank, err := strconv.Atoi(parts[0])
	if err != nil || len(parts) < 2 {
		return fail(fmt.Errorf("bad -tcp-child %q", arg))
	}
	peers := parts[1:]
	rep := &childReport{Rank: rank}
	// One scheduler thread per rank process: its client and the transport's
	// goroutines that serve the other rank's operations take turns on it.
	// With two each, four threads fought for the box's two cores: latency was
	// twice as high and spread twice as wide. (Pinning each process to a core
	// as well made both worse again: the loopback's softirq work wants the
	// other core.)
	runtime.GOMAXPROCS(1)
	if mode == modeProbe {
		err = tcpProbeChild(o, rank, peers, rep)
	} else {
		s, ok := specByName(workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", workload))
		}
		err = tcpWorkloadChild(o.shrink(s), o, mode, rank, peers, rep)
	}
	if err != nil {
		return fail(fmt.Errorf("rank %d: %w", rank, err))
	}
	if err := gob.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return fail(err)
	}
	return 0
}

func tcpWorkloadChild(s spec, o options, mode childMode, rank int, peers []string, rep *childReport) error {
	in, err := generate(s, []int{rank})
	if err != nil {
		return err
	}
	t0 := time.Now()
	t, err := tcp.New(tcp.Config{Rank: rank, Peers: peers})
	if err != nil {
		return err
	}
	rt := gdi.InitWithTransport(t)
	defer rt.Finalize()
	e, err := load(s, in, rt)
	if err != nil {
		return err
	}
	rep.SetupS = time.Since(t0).Seconds()
	rep.LoadVerticesS, rep.LoadEdgesS, rep.UsedBlocks = e.loadVerticesS, e.loadEdgesS, e.usedBlocks
	barrier := func() { rt.Run(e.db, func(p *gdi.Process) { p.Barrier() }) }
	if mode == modeRun {
		ss := newSessions(e, opSeed(o.seed), []int{rank})
		ph, err := runPhases(e, ss, o, barrier)
		if err != nil {
			return err
		}
		barrier()
		rep.Warm, rep.Untraced, rep.Traced = ph.warm, ph.untraced, ph.traced
		rep.Vertices = e.vertexCount()
	}
	rep.Mem = measureMemory()
	barrier() // no rank leaves while another still reads its windows
	return nil
}
