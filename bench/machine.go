package bench

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchcal"
)

// calibrationReps is how many benchcal spins one calibration times.
const calibrationReps = 64

// Machine describes the box a set ran on and how it behaved meanwhile,
// so a drifting machine is visible in the report instead of being
// mistaken for a regression.
type Machine struct {
	NProc    int    `json:"nproc"`
	CPUModel string `json:"cpu_model"`
	GoVer    string `json:"go_version"`
	// CalibrationNS is the median time of benchcal.Spin(4096) over the
	// calibrations taken before each round; CalibrationN their count.
	CalibrationNS float64 `json:"calibration_ns"`
	CalibrationN  int     `json:"calibration_n"`
	// StealRatio is steal / total jiffies from /proc/stat over the set.
	StealRatio float64 `json:"steal_ratio"`
}

var calibrationSink uint64

// machineProbe samples the machine across one set.
type machineProbe struct {
	spins        []float64
	steal, total float64
}

func newMachineProbe() *machineProbe {
	p := &machineProbe{}
	p.steal, p.total = readProcStat()
	return p
}

// calibrate times the reference spin.
func (p *machineProbe) calibrate() {
	for i := 0; i < calibrationReps; i++ {
		start := time.Now()
		calibrationSink += benchcal.Spin(4096)
		p.spins = append(p.spins, float64(time.Since(start).Nanoseconds()))
	}
}

func (p *machineProbe) finish() Machine {
	if len(p.spins) == 0 {
		p.calibrate()
	}
	m := Machine{
		NProc:         runtime.NumCPU(),
		CPUModel:      cpuModel(),
		GoVer:         runtime.Version(),
		CalibrationNS: Median(p.spins),
		CalibrationN:  len(p.spins),
	}
	steal, total := readProcStat()
	if dt := total - p.total; dt > 0 {
		m.StealRatio = (steal - p.steal) / dt
	}
	return m
}

// readProcStat returns the aggregate steal and total jiffies.
func readProcStat() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9, 10) are already inside user
		// and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// gitCommit returns the checkout's HEAD, with "-dirty" appended when
// the tree differs from it; "" outside a git repository.
func gitCommit(root string) string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	head, err := git("rev-parse", "--short=12", "HEAD")
	if err != nil {
		return ""
	}
	if status, err := git("status", "--porcelain"); err == nil && status != "" {
		head += "-dirty"
	}
	return head
}
