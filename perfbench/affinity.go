package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// The server child and the load generator run on disjoint CPUs, as they
// would on separate machines: the server gets the first CPU this process
// may use and the generator the rest. Sharing every CPU instead lets the
// scheduler interleave the two differently from run to run, which moved
// throughput by over ten percent between identical runs.

// cpuMask is a sched_setaffinity bit mask covering CPUs 0..1023.
type cpuMask [16]uint64

func (m *cpuMask) cpus() []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// allowedCPUs returns the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m.cpus(), nil
}

// pinProcess restricts every thread of this process to cpus. Threads the
// Go runtime starts later inherit the mask from the thread creating them.
func pinProcess(cpus []int) error {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 && e != syscall.ESRCH {
			return fmt.Errorf("sched_setaffinity %d: %w", tid, e)
		}
	}
	return nil
}

// pin restricts this process to cpus and sizes GOMAXPROCS to them.
func pin(cpus []int) error {
	if err := pinProcess(cpus); err != nil {
		return err
	}
	runtime.GOMAXPROCS(len(cpus))
	return nil
}

// parseCPUs reads a comma-separated CPU list.
func parseCPUs(list string) ([]int, error) {
	var cpus []int
	for _, f := range strings.Split(list, ",") {
		c, err := strconv.Atoi(f)
		if err != nil || c < 0 || c >= len(cpuMask{})*64 {
			return nil, fmt.Errorf("bad CPU %q", f)
		}
		cpus = append(cpus, c)
	}
	return cpus, nil
}

func cpuList(cpus []int) string {
	s := make([]string, len(cpus))
	for i, c := range cpus {
		s[i] = strconv.Itoa(c)
	}
	return strings.Join(s, ",")
}

// splitCPUs returns the server's and the generator's CPUs; with a single
// CPU both share it.
func splitCPUs() (server, generator []int, err error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, nil, err
	}
	if len(cpus) < 2 {
		return cpus, cpus, nil
	}
	return cpus[:1], cpus[1:], nil
}
