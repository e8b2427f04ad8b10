package main

import (
	"errors"
	"fmt"
	"io/fs"
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

// clockTicksPerSec is USER_HZ: the unit of utime/stime in
// /proc/<pid>/stat, fixed at 100 on every Linux ABI Go runs on.
const clockTicksPerSec = 100

// daemon is one running morseld process under measurement.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	readyIn time.Duration // spawn -> first /healthz 200
	exited  chan struct{} // closed once cmd.Wait returned
}

// spawn starts morseld on a free loopback port with the given workload
// flags and data directory and waits until /healthz answers 200. The process
// is killed with its parent, so a crashed benchmark leaves nothing
// behind.
func spawn(cfg *config, flags []string, dataDir string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("finding a free port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()

	logPath := dataDir + ".log"
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	args := append([]string{"-addr", addr, "-data-dir", dataDir}, flags...)
	cmd := exec.Command(cfg.morseld, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", cfg.morseld, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we signal ourselves carries no news
		close(d.exited)
	}()

	for {
		resp, err := cfg.http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyIn = time.Since(start)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("morseld exited before serving; see %s", logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Since(start) > 120*time.Second {
			d.stop()
			return nil, fmt.Errorf("morseld not healthy after 120s; see %s", logPath)
		}
	}
}

// stop asks the daemon to shut down, kills it if it lingers, and returns
// only once the process has ended.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpuSeconds reads utime+stime of the whole process (all threads).
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis.
	s := string(b)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", s)
	}
	utime, err1 := strconv.ParseFloat(rest[11], 64)
	stime, err2 := strconv.ParseFloat(rest[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicksPerSec, nil
}

// peakRSSMB reads VmHWM, the resident-set high-water mark.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPUSeconds is this process's own utime+stime.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
