// Package unixbench reimplements the UnixBench workload suite used by the
// paper's Figure 6 against the simulated guest: CPU-bound index programs,
// system-call and pipe microbenchmarks (including the pipe-based context
// switching subtest that the paper identifies as the only degraded one),
// process creation, execl throughput and shell-script spawning.
//
// Scores are operations completed per simulated time; like UnixBench, the
// overall index is the geometric mean of per-subtest scores normalized to
// a baseline run.
package unixbench

import (
	"fmt"
	"math"

	"facechange/internal/kernel"
)

// Subtest is one UnixBench workload.
type Subtest struct {
	Name string
	// Launch starts the subtest's processes on the guest and returns a
	// progress function counting completed operations.
	Launch func(k *kernel.Kernel) func() uint64
}

// Score is a subtest result.
type Score struct {
	Name   string
	Ops    uint64
	Cycles uint64
	// Score is operations per million simulated cycles.
	Score float64
}

func loopTask(k *kernel.Kernel, name string, calls []kernel.Syscall) *kernel.Task {
	return k.StartTask(kernel.TaskSpec{Name: name, Script: &kernel.LoopScript{Calls: calls}})
}

// Subtests returns the suite in UnixBench order.
func Subtests() []Subtest {
	return []Subtest{
		{
			// Register-file arithmetic: pure user time; kernel views are
			// irrelevant, so FACE-CHANGE overhead here is near zero.
			Name: "Dhrystone 2",
			Launch: func(k *kernel.Kernel) func() uint64 {
				t := loopTask(k, "dhry", []kernel.Syscall{
					{Nr: kernel.SysGetpid, UserWork: 400000},
				})
				return func() uint64 { return t.SyscallsDone }
			},
		},
		{
			Name: "Whetstone",
			Launch: func(k *kernel.Kernel) func() uint64 {
				t := loopTask(k, "whet", []kernel.Syscall{
					{Nr: kernel.SysGetpid, UserWork: 700000},
				})
				return func() uint64 { return t.SyscallsDone }
			},
		},
		{
			Name: "Execl Throughput",
			Launch: func(k *kernel.Kernel) func() uint64 {
				t := k.StartTask(kernel.TaskSpec{Name: "execl", Script: execlScript()})
				return func() uint64 { return t.SyscallsDone }
			},
		},
		{
			Name: "File Copy",
			Launch: func(k *kernel.Kernel) func() uint64 {
				t := loopTask(k, "fcopy", []kernel.Syscall{
					{Nr: kernel.SysRead, File: kernel.FileExt4},
					{Nr: kernel.SysWrite, File: kernel.FileExt4},
				})
				return func() uint64 { return t.SyscallsDone / 2 }
			},
		},
		{
			Name: "Pipe Throughput",
			Launch: func(k *kernel.Kernel) func() uint64 {
				t := loopTask(k, "pipethr", []kernel.Syscall{
					{Nr: kernel.SysWrite, File: kernel.FilePipe},
					{Nr: kernel.SysRead, File: kernel.FilePipe},
				})
				return func() uint64 { return t.SyscallsDone / 2 }
			},
		},
		{
			// Two processes bouncing messages over pipes: every operation
			// blocks, so every operation context-switches — the subtest the
			// paper reports as the one with visible FACE-CHANGE overhead
			// ("FACE-CHANGE triggers additional traps for each context
			// switch").
			Name: "Pipe-based Context Switching",
			Launch: func(k *kernel.Kernel) func() uint64 {
				mk := func(name string) *kernel.Task {
					return loopTask(k, name, []kernel.Syscall{
						{Nr: kernel.SysWrite, File: kernel.FilePipe},
						{Nr: kernel.SysRead, File: kernel.FilePipe, Blocks: 1},
					})
				}
				a, b := mk("ctx1"), mk("ctx2")
				return func() uint64 { return (a.SyscallsDone + b.SyscallsDone) / 2 }
			},
		},
		{
			Name: "Process Creation",
			Launch: func(k *kernel.Kernel) func() uint64 {
				t := k.StartTask(kernel.TaskSpec{Name: "spawn", Script: kernel.FuncScript(procCreationScript())})
				return func() uint64 { return t.SyscallsDone / 2 }
			},
		},
		{
			Name: "Shell Scripts",
			Launch: func(k *kernel.Kernel) func() uint64 {
				t := k.StartTask(kernel.TaskSpec{Name: "looper", Script: kernel.FuncScript(shellScript())})
				return func() uint64 { return t.SyscallsDone / 2 }
			},
		},
		{
			Name: "System Call Overhead",
			Launch: func(k *kernel.Kernel) func() uint64 {
				t := loopTask(k, "syscall", []kernel.Syscall{{Nr: kernel.SysGetpid}})
				return func() uint64 { return t.SyscallsDone }
			},
		},
	}
}

// execlScript repeatedly replaces the process image with itself.
func execlScript() kernel.Script {
	var self kernel.FuncScript
	self = func() (kernel.Syscall, bool) {
		return kernel.Syscall{Nr: kernel.SysExecve, UserWork: 25000, Spawn: &kernel.TaskSpec{
			Name:   "execl",
			Script: self,
		}}, true
	}
	return self
}

func procCreationScript() func() (kernel.Syscall, bool) {
	fork := true
	return func() (kernel.Syscall, bool) {
		if fork {
			fork = false
			return kernel.Syscall{Nr: kernel.SysFork, UserWork: 12000, Spawn: &kernel.TaskSpec{
				Name:   "child",
				Script: &kernel.SliceScript{Calls: []kernel.Syscall{{Nr: kernel.SysExit, UserWork: 8000}}},
			}}, true
		}
		fork = true
		return kernel.Syscall{Nr: kernel.SysWaitpid, Blocks: 1, UserWork: 8000}, true
	}
}

func shellScript() func() (kernel.Syscall, bool) {
	fork := true
	return func() (kernel.Syscall, bool) {
		if fork {
			fork = false
			return kernel.Syscall{Nr: kernel.SysFork, UserWork: 20000, Spawn: &kernel.TaskSpec{
				Name: "sh",
				Script: &kernel.SliceScript{Calls: []kernel.Syscall{
					{Nr: kernel.SysDup2},
					{Nr: kernel.SysExecve, Spawn: &kernel.TaskSpec{
						Name: "script",
						Script: &kernel.SliceScript{Calls: []kernel.Syscall{
							{Nr: kernel.SysOpen, File: kernel.FileExt4},
							{Nr: kernel.SysRead, File: kernel.FileExt4},
							{Nr: kernel.SysWrite, File: kernel.FileDevNull, UserWork: 15000},
							{Nr: kernel.SysExit},
						}},
					}},
				}},
			}}, true
		}
		fork = true
		return kernel.Syscall{Nr: kernel.SysWaitpid, Blocks: 1, UserWork: 10000}, true
	}
}

// Run executes one subtest on the given (freshly booted) guest for budget
// simulated cycles and returns its score.
func Run(k *kernel.Kernel, st Subtest, budget uint64) (Score, error) {
	progress := st.Launch(k)
	start := k.M.Cycles()
	if err := k.M.Run(budget, nil); err != nil {
		return Score{}, fmt.Errorf("unixbench %s: %w", st.Name, err)
	}
	elapsed := k.M.Cycles() - start
	ops := progress()
	return Score{
		Name:   st.Name,
		Ops:    ops,
		Cycles: elapsed,
		Score:  float64(ops) * 1e6 / float64(elapsed),
	}, nil
}

// Index computes the UnixBench-style overall index: the geometric mean of
// scores normalized by the baseline run (1.0 = baseline performance).
func Index(scores, baseline []Score) float64 {
	if len(scores) == 0 || len(scores) != len(baseline) {
		return 0
	}
	logSum := 0.0
	n := 0
	for i, s := range scores {
		if baseline[i].Score <= 0 || s.Score <= 0 {
			continue
		}
		logSum += math.Log(s.Score / baseline[i].Score)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
