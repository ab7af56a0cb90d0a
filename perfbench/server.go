package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one cstserved child process.
type server struct {
	cmd      *exec.Cmd
	httpAddr string // "127.0.0.1:port"
	wireAddr string // "" when the wire listener is off
	lines    chan string
	done     chan struct{} // closed when stdout hits EOF
}

// startServer execs bin with args and returns once it has announced its
// listeners. The caller owns the process and must call stop.
func startServer(bin string, args []string, wantWire bool) (*server, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, lines: make(chan string, 2), done: make(chan struct{})}
	go s.readStdout(out)
	timeout := time.After(30 * time.Second)
	for s.httpAddr == "" || (wantWire && s.wireAddr == "") {
		select {
		case line, ok := <-s.lines:
			if !ok {
				s.stop()
				return nil, errors.New("cstserved exited before announcing its listeners")
			}
			if a, ok := strings.CutPrefix(line, "cstserved: serving on "); ok {
				s.httpAddr = strings.Fields(a)[0]
			}
			if a, ok := strings.CutPrefix(line, "cstserved: wire protocol on "); ok {
				s.wireAddr = strings.TrimSpace(a)
			}
		case <-timeout:
			s.stop()
			return nil, errors.New("cstserved did not announce its listeners within 30s")
		}
	}
	return s, nil
}

// readStdout forwards the announcement lines and discards the rest, so the
// child never blocks on a full pipe.
func (s *server) readStdout(r io.Reader) {
	defer close(s.done)
	sc := bufio.NewScanner(r)
	announced := 0
	for sc.Scan() {
		if announced < cap(s.lines) {
			s.lines <- sc.Text()
			announced++
		}
	}
	close(s.lines)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM, kills it if the drain takes longer
// than ten seconds, and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	_ = s.cmd.Wait()
}

// procSample is a reading of the server's kernel counters.
type procSample struct {
	cpu    time.Duration // time on CPU, summed over threads
	ctxsw  int64         // voluntary + involuntary, summed over threads
	hwmKiB int64         // peak resident set
}

// readProc reads the server's CPU time, context switches and peak RSS. CPU
// time is the nanosecond sum of /proc/<pid>/task/*/schedstat, finer than the
// 10 ms ticks of /proc/<pid>/stat; the Go runtime does not retire threads,
// so the sum never loses an exited thread's time.
func readProc(pid int) (procSample, error) {
	var ps procSample
	status, err := readStatus(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	ps.hwmKiB = status["VmHWM"]
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*", pid))
	if err != nil {
		return ps, err
	}
	for _, t := range tasks {
		ts, err := readStatus(t + "/status")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		ps.ctxsw += ts["voluntary_ctxt_switches"] + ts["nonvoluntary_ctxt_switches"]
		sched, err := os.ReadFile(t + "/schedstat")
		if err != nil {
			continue
		}
		f := strings.Fields(string(sched))
		if len(f) == 0 {
			return ps, fmt.Errorf("%s/schedstat: empty", t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return ps, fmt.Errorf("%s/schedstat: %w", t, err)
		}
		ps.cpu += time.Duration(ns)
	}
	return ps, nil
}

// cpuTicks is the machine-wide CPU time from the first line of /proc/stat,
// in clock ticks: all of it, and the part the hypervisor gave to others
// (steal).
type cpuTicks struct{ total, steal int64 }

func readCPUTicks() (cpuTicks, error) {
	var t cpuTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return t, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return t, fmt.Errorf("/proc/stat: %w", err)
		}
		if i < 8 { // user .. steal; guest time is already in user
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t, nil
}

// readStatus parses the numeric "Key: value [kB]" lines of a status file.
func readStatus(path string) (map[string]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		if n, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			out[k] = n
		}
	}
	return out, nil
}

// scrape is the server's own counters read over HTTP: the cst_serve_*
// series from /metrics and the runtime MemStats totals from
// /debug/pprof/heap?debug=1.
type scrape struct {
	metrics map[string]float64
	mem     map[string]float64 // Mallocs, TotalAlloc, NumGC
}

func scrapeServer(client *http.Client, httpAddr string) (scrape, error) {
	var sc scrape
	body, err := get(client, "http://"+httpAddr+"/metrics")
	if err != nil {
		return sc, err
	}
	sc.metrics = make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "cst_serve_") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			sc.metrics[name] = v
		}
	}
	body, err = get(client, "http://"+httpAddr+"/debug/pprof/heap?debug=1")
	if err != nil {
		return sc, err
	}
	sc.mem = make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch k {
		case "Mallocs", "TotalAlloc", "NumGC":
			if n, err := strconv.ParseFloat(v, 64); err == nil {
				sc.mem[k] = n
			}
		}
	}
	if len(sc.mem) != 3 {
		return sc, errors.New("heap profile lacks the MemStats totals")
	}
	return sc, nil
}

func get(client *http.Client, url string) (string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}
