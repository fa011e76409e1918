package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostBlock names what a number was measured on. Every output carries it,
// so a refused change can tell a different host from a regression.
type hostBlock struct {
	Commit     string `json:"commit"`
	Date       string `json:"date"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	GoVersion  string `json:"goversion"`
	Seed       int64  `json:"seed"`
	DataDirFS  string `json:"datadir_fs"`
	// DataDirFSCompresses is true on filesystems that compress
	// transparently: double compression and copy-on-write distort the
	// durable.* probes' fsync and write-amplification numbers.
	DataDirFSCompresses bool `json:"datadir_fs_compresses"`
}

// clientCount is the closed loop's width: one core is left to the worker
// pools, the collector and the demoter, because with a client per core
// the benchmark measured the scheduler.
func clientCount() int {
	return min(max(runtime.NumCPU()-1, 1), 4)
}

// fsNames maps statfs f_type magics to names (linux/magic.h).
var fsNames = map[int64]string{
	0x9123683E: "btrfs",
	0x2FC12FC1: "zfs",
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0xF2F52010: "f2fs",
	0x65735546: "fuse",
}

// detectFS names the filesystem holding dir and reports whether it
// compresses transparently.
func detectFS(dir string) (name string, compresses bool) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown", false
	}
	magic := int64(uint32(st.Type))
	name, ok := fsNames[magic]
	if !ok {
		name = fmt.Sprintf("0x%x", magic)
	}
	return name, name == "btrfs" || name == "zfs"
}

func newHostBlock(o options) hostBlock {
	commit := os.Getenv("HCBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fs, compresses := detectFS(o.buildDir())
	if compresses {
		fmt.Fprintf(os.Stderr, "WARNING: datadir_fs_compresses: true (%s under %s): durable.* numbers are distorted\n", fs, o.buildDir())
	}
	return hostBlock{
		Commit:              commit,
		Date:                time.Now().UTC().Format(time.RFC3339),
		NProc:               runtime.NumCPU(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Clients:             o.clients,
		GoVersion:           runtime.Version(),
		Seed:                o.seed,
		DataDirFS:           fs,
		DataDirFSCompresses: compresses,
	}
}

// calibrate times a fixed stdlib-only kernel — CRC32C and copy over
// 64 MiB in four passes of 16 MiB — and returns milliseconds. It touches
// none of the program under test, so a drift between the reading before
// set-up and the one after the last rep is the host's, not the change's.
func calibrate() float64 {
	const chunk, passes = 16 << 20, 4
	src := make([]byte, chunk)
	dst := make([]byte, chunk)
	for i := range src {
		src[i] = byte(i * 131)
		dst[i] = 1 // touch every page before the clock starts
	}
	runtime.GC() // no concurrent collection inside the timed kernel
	tab := crc32.MakeTable(crc32.Castagnoli)
	start := time.Now()
	var sum uint32
	for p := 0; p < passes; p++ {
		copy(dst, src)
		sum ^= crc32.Checksum(dst, tab)
		src[p] ^= byte(sum)
	}
	return float64(time.Since(start)) / 1e6
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: total jiffies
// and the steal column (time the hypervisor ran someone else).
func cpuTimes() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	fields := strings.Fields(string(line))
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
