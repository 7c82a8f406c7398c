package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 10_000 // microseconds

// procCPU is a process's accumulated CPU time in microseconds.
type procCPU struct {
	user, sys float64
}

func (c procCPU) sub(o procCPU) procCPU { return procCPU{user: c.user - o.user, sys: c.sys - o.sys} }

// parseStat reads utime and stime (fields 14 and 15) from the text of
// /proc/<pid>/stat. The command name in field 2 may hold spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseStat(text string) (procCPU, error) {
	end := strings.LastIndexByte(text, ')')
	if end < 0 {
		return procCPU{}, fmt.Errorf("stat: no command name in %q", text)
	}
	f := strings.Fields(text[end+1:])
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return procCPU{}, fmt.Errorf("stat: %d fields after the command name", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return procCPU{}, fmt.Errorf("stat stime: %w", err)
	}
	return procCPU{user: float64(utime * clockTick), sys: float64(stime * clockTick)}, nil
}

// procIO is the syscall and byte accounting of /proc/<pid>/io.
type procIO struct {
	syscr, syscw uint64 // read and write system calls
	rchar, wchar uint64 // bytes passed to and from them
}

func (p procIO) sub(o procIO) procIO {
	return procIO{syscr: p.syscr - o.syscr, syscw: p.syscw - o.syscw, rchar: p.rchar - o.rchar, wchar: p.wchar - o.wchar}
}

// parseIO reads /proc/<pid>/io text ("key: value" lines).
func parseIO(text string) (procIO, error) {
	var io procIO
	fields := map[string]*uint64{"syscr": &io.syscr, "syscw": &io.syscw, "rchar": &io.rchar, "wchar": &io.wchar}
	for _, line := range strings.Split(text, "\n") {
		key, val, ok := strings.Cut(line, ":")
		dst := fields[key]
		if !ok || dst == nil {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("io %s: %w", key, err)
		}
		*dst = n
		delete(fields, key)
	}
	if len(fields) > 0 {
		return procIO{}, fmt.Errorf("io: %d of syscr/syscw/rchar/wchar missing", len(fields))
	}
	return io, nil
}

// procSample is one reading of a process's CPU and I/O accounting.
type procSample struct {
	cpu procCPU
	io  procIO
}

// readProc samples /proc/<pid>/stat and /proc/<pid>/io.
func readProc(pid int) (procSample, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	iot, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid))
	if err != nil {
		return procSample{}, err
	}
	cpu, err := parseStat(string(stat))
	if err != nil {
		return procSample{}, err
	}
	io, err := parseIO(string(iot))
	if err != nil {
		return procSample{}, err
	}
	return procSample{cpu: cpu, io: io}, nil
}
