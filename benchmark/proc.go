package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// The kernel reports process CPU time in clock ticks; USER_HZ is 100 on
// every Linux architecture Go supports.
const msPerTick = 10

// errNoProc reports that /proc is not readable: off Linux the benchmark
// still runs but cannot measure cpu_ms_per_mb and rss_mb. The files are
// read at run time, with no build tag, so the package builds everywhere.
var errNoProc = errors.New("/proc not readable: cpu_ms_per_mb and rss_mb unavailable on this platform")

// procStat returns a process's parent pid, command name and user+system CPU
// time in milliseconds, from /proc/<pid>/stat.
func procStat(pid int) (ppid int, comm string, cpuMs int64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, "", 0, err
	}
	// The command name is parenthesised and may itself hold spaces or
	// parentheses; the fields after the last ')' are unambiguous.
	s := string(raw)
	open, end := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
	if open < 0 || end < open {
		return 0, "", 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	fields := strings.Fields(s[end+1:])
	if len(fields) < 13 {
		return 0, "", 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	// fields[0] is state (field 3); ppid is field 4, utime 14, stime 15.
	ppid, _ = strconv.Atoi(fields[1])
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	return ppid, s[open+1 : end], (utime + stime) * msPerTick, nil
}

// childPids lists the live child processes of this process named comm.
// procnet.Daemon does not expose its pid, so the harness finds its ncd
// children the way ps does.
func childPids(comm string) ([]int, error) {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil, errNoProc
	}
	self := os.Getpid()
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		ppid, name, _, err := procStat(pid)
		if err == nil && ppid == self && name == comm {
			pids = append(pids, pid)
		}
	}
	return pids, nil
}

// cpuMs sums user+system CPU milliseconds over the harness and pids.
func cpuMs(pids []int) (int64, error) {
	total := int64(0)
	for _, pid := range append([]int{os.Getpid()}, pids...) {
		_, _, ms, err := procStat(pid)
		if err != nil {
			return 0, errNoProc
		}
		total += ms
	}
	return total, nil
}

// peakRSSMB sums VmHWM, the peak resident set, over the harness and pids.
func peakRSSMB(pids []int) (float64, error) {
	totalKB := int64(0)
	for _, pid := range append([]int{os.Getpid()}, pids...) {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, errNoProc
		}
		kb := int64(-1)
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
				break
			}
		}
		if kb < 0 {
			return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
		}
		totalKB += kb
	}
	return float64(totalKB) / 1024, nil
}

// hostInfo fingerprints the machine a result was taken on, so results from
// different hosts are never compared by accident.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OSArch     string `json:"os_arch"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		Kernel:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	return h
}
