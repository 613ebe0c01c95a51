package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonPkgs are the programs under test, built from the working tree at run
// time so that parent and change are measured by identical benchmark code.
var daemonPkgs = []string{"./cmd/graphtempod", "./cmd/graphtempo-router"}

// buildDaemons compiles the daemons from the checkout rooted at root into
// binDir. The go command decides what is stale, so a second call is cheap.
func buildDaemons(root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	args := append([]string{"build", "-o", binDir + string(os.PathSeparator)}, daemonPkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go %s in %s: %w\n%s", strings.Join(args, " "), root, err, stderr.String())
	}
	return nil
}

// proc is one spawned server process.
type proc struct {
	name string
	args []string // flags passed, for the run meta
	addr string   // host:port it listens on
	cmd  *exec.Cmd
	log  *os.File
}

func (p *proc) url() string { return "http://" + p.addr }

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// spawn starts bin with `-addr <free port>` plus args; its output goes to
// <dir>/<name>.log. The child is killed if the benchmark dies first.
func spawn(bin, dir, name string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", addr}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return &proc{name: name, args: full, addr: addr, cmd: cmd, log: logf}, nil
}

// kill sends SIGKILL and waits until the process has ended.
func (p *proc) kill() {
	if p == nil || p.cmd == nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
	p.log.Close()
	p.cmd = nil
}

// waitHTTP polls GET url until it answers 200 or the budget runs out.
func waitHTTP(url string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Sprintf("%d %s", resp.StatusCode, bytes.TrimSpace(body))
		} else {
			last = err.Error()
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %s: %s", url, budget, last)
}

// clockTick is the kernel's USER_HZ: the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux this benchmark targets.
const clockTick = 100

// cpuMs returns the process's consumed user+system CPU time in ms.
func (p *proc) cpuMs() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields resume after ')'.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest) // f[0] is field 3 (state)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", data)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad utime/stime in /proc stat: %q", data)
	}
	return (utime + stime) * 1000 / clockTick, nil
}

// peakRSSMB returns the process's resident high-water mark (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// scrape fetches and parses the process's /metrics.
func (p *proc) scrape() ([]promSample, error) {
	resp, err := http.Get(p.url() + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseProm(string(body)), nil
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if fi, err := e.Info(); err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return n
}
