package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"

	"parhask/internal/nativeeden"
	"parhask/internal/workloads/euler"
)

// The benchmark re-executes its own binary for work that needs a fresh
// process. childEnv names the child's mode and childArgsEnv carries its
// arguments as JSON.
const (
	childEnv     = "PERFBENCH_CHILD"
	childArgsEnv = "PERFBENCH_CHILD_ARGS"
)

// childCmd prepares a child process in the given mode.
func childCmd(mode string, args any) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(args)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+mode, childArgsEnv+"="+string(b))
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// runChild runs a child to completion and decodes its JSON output into
// out.
func runChild(mode string, args, out any) error {
	cmd, err := childCmd(mode, args)
	if err != nil {
		return err
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s: %w", mode, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("child %s: bad output %q: %w", mode, stdout.String(), err)
	}
	return nil
}

// childMain runs this process as a child in the given mode and returns
// its exit code.
func childMain(mode string) int {
	args := []byte(os.Getenv(childArgsEnv))
	var out any
	var err error
	switch mode {
	case "setup":
		out, err = setupChild(args)
	case "eden-sumeuler":
		out, err = edenSumEulerChild(args)
	case "serve":
		err = serveChild()
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err == nil && out != nil {
		err = json.NewEncoder(os.Stdout).Encode(out)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", mode, err)
		return 1
	}
	return 0
}

// childSetup sets the workload up once in a fresh process and returns
// how long that took, in seconds.
func childSetup(cfg config) (float64, error) {
	var out struct{ SetupS float64 }
	err := runChild("setup", cfg, &out)
	return out.SetupS, err
}

func setupChild(args []byte) (any, error) {
	var cfg config
	if err := json.Unmarshal(args, &cfg); err != nil {
		return nil, err
	}
	start := time.Now()
	w, err := workloads[cfg.Workload](cfg)
	if err != nil {
		return nil, err
	}
	s := time.Since(start).Seconds()
	return struct{ SetupS float64 }{s}, w.close()
}

// edenArgs asks an Eden sumEuler child for Runs back-to-back runs.
type edenArgs struct {
	N, Chunks, PEs, Runs int
}

// edenRun is one Eden run as a child reports it.
type edenRun struct {
	Value      int64
	StartNS    int64 // Unix ns
	WallNS     int64
	CPUNS      int64
	Messages   int64
	BytesSent  int64
	GCCycles   int64
	AllocBytes int64
}

// edenSumEulerChild runs euler.EdenProgram in a process where no
// SumRange has run before the first run. EdenProgram computes φ through
// the process-global memo, so only a fresh process times the kernel;
// the second of two runs shows what a warm memo does to the timing.
func edenSumEulerChild(args []byte) (any, error) {
	var a edenArgs
	if err := json.Unmarshal(args, &a); err != nil {
		return nil, err
	}
	var runs []edenRun
	for i := 0; i < a.Runs; i++ {
		cpu0, start := cpuNS(), time.Now()
		res, err := nativeeden.Run(nativeeden.NewConfig(a.PEs), euler.EdenProgram(a.N, a.Chunks, 0))
		wall := time.Since(start)
		if err != nil {
			return nil, err
		}
		v, _ := res.Value.(int64)
		runs = append(runs, edenRun{
			Value: v, StartNS: start.UnixNano(), WallNS: wall.Nanoseconds(), CPUNS: cpuNS() - cpu0,
			Messages: res.Stats.Messages, BytesSent: res.Stats.BytesSent,
			GCCycles: res.GC.Cycles, AllocBytes: res.GC.BytesAlloc,
		})
	}
	return runs, nil
}
