package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// machine is the shape stamp written into every result. Results from
// machines whose shape differs are not comparable, and -compare refuses
// them: a 2-core sandbox and an 8-core box disagree about everything this
// benchmark measures.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	FSType     string `json:"fs_type"` // filesystem of the data directories
	// FsyncProbeUS is the median latency of 64 4KiB write+fsync pairs on
	// that filesystem. It is recorded, not compared: it says what "durable"
	// cost on the day, which is the sandbox's number, not the repo's.
	FsyncProbeUS float64 `json:"fsync_probe_us"`
}

// sameShape reports whether two results were measured on comparable
// machines.
func (m machine) sameShape(o machine) bool {
	return m.NProc == o.NProc && m.GOMAXPROCS == o.GOMAXPROCS && m.CPUModel == o.CPUModel && m.FSType == o.FSType
}

// stampMachine probes the machine; dir is where data directories will live.
func stampMachine(dir string) (machine, error) {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		FSType:     fsType(dir),
	}
	us, err := fsyncProbe(dir)
	m.FsyncProbeUS = us
	return m, err
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number,
// falling back to the number itself for the ones not worth a table entry.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x2FC12FC1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// fsyncProbe times write+fsync pairs in dir and returns the median in
// microseconds.
func fsyncProbe(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var us []float64
	for i := 0; i < 64; i++ {
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(start))/float64(time.Microsecond))
	}
	sort.Float64s(us)
	return us[len(us)/2], nil
}

// selfCPU returns the CPU seconds (user + system) this process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
