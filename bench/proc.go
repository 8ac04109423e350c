package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time
// in ticks of 1/100 s on every Linux the toolchain supports.
const clockTick = 10 * time.Millisecond

// startTimeout bounds how long a daemon may take to announce its
// listeners; httpTimeout bounds one control-plane request.
const (
	startTimeout = 20 * time.Second
	httpTimeout  = 60 * time.Second
)

// FindRoot walks up from dir to the directory holding go.mod.
func FindRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("bench: no go.mod above %s (run from a checkout of the repository)", dir)
		}
		dir = parent
	}
}

// Build compiles the programs under test — fabricd and experiments —
// from the checkout at root into dir.
func Build(ctx context.Context, root, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/fabricd", "./cmd/experiments")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("bench: go build ./cmd/fabricd ./cmd/experiments: %w\n%s", err, out)
	}
	return nil
}

// Daemon is one running fabricd process.
type Daemon struct {
	// HTTP and Wire are the announced control-plane and binary resolve
	// addresses.
	HTTP, Wire string
	// Started is when the process was exec'd.
	Started time.Time

	cmd    *exec.Cmd
	wait   chan error // receives cmd.Wait's result once
	log    *os.File
	client *http.Client
}

// announce collects fabricd's two stdout announcement lines.
type announce struct {
	mu         sync.Mutex
	buf        []byte // guarded by mu
	http, wire string // guarded by mu
	ready      chan struct{}
	once       sync.Once
}

func (a *announce) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.buf = append(a.buf, p...)
	for {
		nl := bytes.IndexByte(a.buf, '\n')
		if nl < 0 {
			break
		}
		line := string(a.buf[:nl])
		a.buf = a.buf[nl+1:]
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "fabricd: binary resolve protocol on ") && len(fields) > 0:
			a.wire = fields[len(fields)-1]
		case strings.HasPrefix(line, "fabricd: serving "):
			for i, f := range fields {
				if f == "on" && i+1 < len(fields) {
					a.http = fields[i+1]
				}
			}
		}
	}
	if a.http != "" && a.wire != "" {
		a.once.Do(func() { close(a.ready) })
	}
	return len(p), nil
}

// StartDaemon execs fabricd with the given flags plus ephemeral HTTP
// and binary listeners, and returns once both are announced. The
// daemon's structured log is appended to logPath.
func StartDaemon(bin, logPath string, args ...string) (*Daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	full := append(append([]string(nil), args...), "-addr", "127.0.0.1:0", "-listen-binary", "127.0.0.1:0")
	cmd := exec.Command(bin, full...)
	ann := &announce{ready: make(chan struct{})}
	cmd.Stdout = ann
	cmd.Stderr = logf
	started := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("bench: starting %s: %w", bin, err)
	}
	d := &Daemon{Started: started, cmd: cmd, log: logf, client: &http.Client{Timeout: httpTimeout}}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case <-ann.ready:
	case err := <-exited:
		logf.Close()
		return nil, fmt.Errorf("bench: fabricd %v exited before serving: %v (log: %s)", args, err, logPath)
	case <-time.After(startTimeout):
		cmd.Process.Kill()
		<-exited
		logf.Close()
		return nil, fmt.Errorf("bench: fabricd %v did not announce its listeners within %v", args, startTimeout)
	}
	ann.mu.Lock()
	d.HTTP, d.Wire = ann.http, ann.wire
	ann.mu.Unlock()
	d.wait = exited
	return d, nil
}

// Stop kills the daemon and waits until it has ended.
func (d *Daemon) Stop() {
	if d == nil || d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.wait
	d.client.CloseIdleConnections()
	d.log.Close()
	d.cmd = nil
}

// Pid returns the daemon's process id.
func (d *Daemon) Pid() int { return d.cmd.Process.Pid }

// CPU returns the user+system CPU time the process has consumed, from
// /proc/<pid>/stat.
func (d *Daemon) CPU() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.Pid()))
	if err != nil {
		return 0, err
	}
	// The comm field may contain spaces; fields are counted from the
	// closing parenthesis. utime and stime are fields 14 and 15.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc/%d/stat", d.Pid())
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unparsable CPU fields in /proc/%d/stat", d.Pid())
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// PeakRSSMB returns the process's peak resident set (VmHWM) in MB.
func (d *Daemon) PeakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.Pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%d/status", d.Pid())
}

// Scrape reads GET /metrics into a name -> value map (labelled samples
// keep their label set in the name, as exposed).
func (d *Daemon) Scrape() (map[string]float64, error) {
	resp, err := d.client.Get("http://" + d.HTTP + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: GET /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// Event is one control-plane journal entry as GET /events serves it.
type Event struct {
	Seq    uint64         `json:"seq"`
	Type   string         `json:"type"`
	DurNS  int64          `json:"dur_ns"`
	Fields map[string]any `json:"fields"`
}

// Events returns the journal entries after sequence since, oldest
// first, and the journal's current sequence.
func (d *Daemon) Events(since uint64) ([]Event, uint64, error) {
	var body struct {
		Seq    uint64  `json:"seq"`
		Events []Event `json:"events"`
	}
	if _, err := d.Call(http.MethodGet, fmt.Sprintf("/events?since=%d", since), &body); err != nil {
		return nil, 0, err
	}
	return body.Events, body.Seq, nil
}

// Call issues one control-plane request and decodes the JSON reply
// into out (when non-nil). A status >= 400 is an error carrying the
// daemon's message; the status is returned either way.
func (d *Daemon) Call(method, path string, out any) (int, error) {
	req, err := http.NewRequest(method, "http://"+d.HTTP+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 400 {
		return resp.StatusCode, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(body)))
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// procResult is what one run of a command-line program cost.
type procResult struct {
	Wall   time.Duration
	CPU    time.Duration // user + system
	RSSMB  float64       // peak resident set
	Stdout []byte
}

// runProc runs a command-line program to completion.
func runProc(ctx context.Context, bin string, args ...string) (procResult, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	res := procResult{Wall: time.Since(start), Stdout: stdout.Bytes()}
	if err != nil {
		return res, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	res.CPU = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return res, nil
}
