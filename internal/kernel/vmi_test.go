package kernel

import (
	"testing"

	"facechange/internal/mem"
)

// vmiAcc reads guest kernel memory the way the hypervisor's VMI does:
// guest virtual addresses through a kernel address space and cpuID's EPT.
func vmiAcc(k *Kernel, cpuID int) mem.Accessor {
	return mem.Accessor{AS: mem.NewAddressSpace(), EPT: k.M.CPUs[cpuID].EPT, Host: k.Host}
}

// readPick follows cpuID's rq->curr to its task struct and returns the
// pid and the whole comm field.
func readPick(t *testing.T, k *Kernel, cpuID int) (pid uint32, comm [VMICommLen]byte) {
	t.Helper()
	acc := vmiAcc(k, cpuID)
	ptr, err := acc.ReadU32(VMIRQCurrBase + uint32(cpuID)*4)
	if err != nil {
		t.Fatal(err)
	}
	if pid, err = acc.ReadU32(ptr + VMITaskPIDOff); err != nil {
		t.Fatal(err)
	}
	if err := acc.Read(ptr+VMITaskCommOff, comm[:]); err != nil {
		t.Fatal(err)
	}
	return pid, comm
}

func commField(s string) (c [VMICommLen]byte) {
	copy(c[:], s)
	return c
}

// TestPickTaskRoundTrip reads each pick back through rq->curr: a short
// comm after a long one leaves no stale bytes, and a comm of
// VMICommLen bytes or more is cut to the field.
func TestPickTaskRoundTrip(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockKVM})
	for _, tc := range []struct {
		pid        int
		comm, want string
	}{
		{101, "apache2", "apache2"},
		{102, "sh", "sh"},
		{103, "0123456789abcdef", "0123456789abcdef"},
		{104, "a-much-longer-process-name", "a-much-longer-pr"},
		{105, "", ""},
		{106, "top", "top"},
	} {
		if err := k.PickTask(0, tc.pid, tc.comm); err != nil {
			t.Fatal(err)
		}
		pid, comm := readPick(t, k, 0)
		if int(pid) != tc.pid || comm != commField(tc.want) {
			t.Errorf("PickTask(0, %d, %q) reads back pid %d comm %q, want %d %q",
				tc.pid, tc.comm, pid, comm, tc.pid, tc.want)
		}
	}
}

// TestPickTaskPerCPU pins that picks on different vCPUs use different
// task structs, so neither overwrites the other.
func TestPickTaskPerCPU(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockKVM, NCPU: 2})
	for cpu, comm := range []string{"mysqld", "sshd"} {
		if err := k.PickTask(cpu, 200+cpu, comm); err != nil {
			t.Fatal(err)
		}
	}
	for cpu, comm := range []string{"mysqld", "sshd"} {
		if pid, got := readPick(t, k, cpu); int(pid) != 200+cpu || got != commField(comm) {
			t.Errorf("cpu%d reads pid %d comm %q, want %d %q", cpu, pid, got, 200+cpu, comm)
		}
	}
}

func TestPickTaskZeroAllocs(t *testing.T) {
	k := buildTestKernel(t, Config{Clock: ClockKVM, NCPU: 2})
	comms := []string{"apache2", "a-much-longer-process-name"}
	var err error
	n := 0
	avg := testing.AllocsPerRun(100, func() {
		if e := k.PickTask(n%2, 100+n, comms[n%2]); e != nil {
			err = e
		}
		n++
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("PickTask allocates %.1f objects/pick, want 0", avg)
	}
}

// TestPlantFrames plants 0-3 return sites, one count per vCPU, then walks
// every chain as the hypervisor's backtrace does (return site at
// frame+4, next frame at frame, stop at 0): each yields exactly its rets,
// so no vCPU's stack overlaps another's.
func TestPlantFrames(t *testing.T) {
	const ncpu = 4
	k := buildTestKernel(t, Config{Clock: ClockKVM, NCPU: ncpu})
	rets := []uint32{0xC0101234, 0xC0105679, 0xF8000420}
	ebps := make([]uint32, ncpu)
	for cpu := range ncpu {
		ebp, err := k.PlantFrames(cpu, rets[:cpu])
		if err != nil {
			t.Fatal(err)
		}
		ebps[cpu] = ebp
	}
	for cpu, ebp := range ebps {
		lo := ebp &^ (mem.KernelStackSize - 1)
		acc := vmiAcc(k, cpu)
		var got []uint32
		for frame := ebp; frame != 0; {
			if frame < lo || frame+8 > lo+mem.KernelStackSize {
				t.Fatalf("cpu%d: frame %#x leaves the stack at %#x", cpu, frame, lo)
			}
			if len(got) > len(rets) {
				t.Fatalf("cpu%d: chain longer than %d frames", cpu, len(rets))
			}
			ret, err := acc.ReadU32(frame + 4)
			if err != nil {
				t.Fatal(err)
			}
			if ret == 0 { // a fresh stack's lone terminator
				break
			}
			got = append(got, ret)
			if frame, err = acc.ReadU32(frame); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != cpu {
			t.Errorf("cpu%d: chain yields %#x, want %#x", cpu, got, rets[:cpu])
			continue
		}
		for i := range got {
			if got[i] != rets[i] {
				t.Errorf("cpu%d: chain yields %#x, want %#x", cpu, got, rets[:cpu])
				break
			}
		}
		for other := range ncpu {
			if other != cpu && ebps[other]&^(mem.KernelStackSize-1) == lo {
				t.Errorf("cpu%d and cpu%d plant on the same stack %#x", cpu, other, lo)
			}
		}
	}
}
