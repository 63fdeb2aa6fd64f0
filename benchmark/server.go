package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"mntp/internal/ntppkt"
	"mntp/internal/ntptime"
)

// serverProc is one running cmd/ntpserver process on loopback.
type serverProc struct {
	cmd    *exec.Cmd
	addr   *net.UDPAddr
	keAddr string

	gcLines atomic.Int64 // gctrace lines seen on stderr

	mu        sync.Mutex
	lastStats string   // last "served=..." line on stdout
	stderr    []string // last few non-gctrace stderr lines, for errors

	readers sync.WaitGroup
}

// startServer runs the server binary with one shard and default
// workers, on an ephemeral loopback port (and an ephemeral NTS-KE port
// with ntsOn), and returns once it has printed its listen addresses.
// gctrace sets GODEBUG=gctrace=1 so GC cycles can be counted.
func startServer(bin string, ntsOn, gctrace bool) (*serverProc, error) {
	args := []string{"-listen", "127.0.0.1:0", "-shards", "1", "-stats", "0", "-drain", "2s"}
	if ntsOn {
		args = append(args, "-nts", "-nts-listen", "127.0.0.1:0")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd}
	ready := make(chan error, 1)
	s.readers.Add(2)
	go s.readStdout(stdout, ntsOn, ready)
	go s.readStderr(stderr)
	select {
	case err = <-ready:
	case <-time.After(20 * time.Second):
		err = errors.New("timed out waiting for the listen line")
	}
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("ntpserver did not come up: %v (stderr: %s)", err, s.stderrTail())
	}
	return s, nil
}

func (s *serverProc) readStdout(r io.Reader, ntsOn bool, ready chan<- error) {
	defer s.readers.Done()
	sc := bufio.NewScanner(r)
	signaled := false
	signal := func(err error) {
		if !signaled {
			signaled = true
			ready <- err
		}
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "ntpserver NTS-KE listening on "):
			s.keAddr = strings.Fields(strings.TrimPrefix(line, "ntpserver NTS-KE listening on "))[0]
		case strings.HasPrefix(line, "ntpserver listening on "):
			a := strings.Fields(strings.TrimPrefix(line, "ntpserver listening on "))[0]
			addr, err := net.ResolveUDPAddr("udp", a)
			if err != nil {
				signal(fmt.Errorf("parsing listen address %q: %w", a, err))
				continue
			}
			s.addr = addr
			if ntsOn && s.keAddr == "" {
				signal(errors.New("listen line came before the NTS-KE line"))
				continue
			}
			signal(nil)
		case strings.HasPrefix(line, "served="):
			s.mu.Lock()
			s.lastStats = line
			s.mu.Unlock()
		}
	}
	signal(errors.New("stdout closed"))
}

func (s *serverProc) readStderr(r io.Reader) {
	defer s.readers.Done()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "gc ") {
			s.gcLines.Add(1)
			continue
		}
		s.mu.Lock()
		s.stderr = append(s.stderr, line)
		if len(s.stderr) > 8 {
			s.stderr = s.stderr[1:]
		}
		s.mu.Unlock()
	}
}

func (s *serverProc) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.stderr, " | ")
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM (graceful drain, then the final stats line), waits
// for the process to exit and returns that line.
func (s *serverProc) stop() (string, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return "", fmt.Errorf("signalling ntpserver: %w", err)
	}
	done := make(chan error, 1)
	go func() {
		s.readers.Wait()
		done <- s.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return "", fmt.Errorf("ntpserver exited: %v (stderr: %s)", err, s.stderrTail())
		}
	case <-time.After(15 * time.Second):
		s.kill()
		<-done
		return "", errors.New("ntpserver did not exit within 15s of SIGTERM")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lastStats == "" {
		return "", errors.New("ntpserver printed no final stats line")
	}
	return s.lastStats, nil
}

// kill ends the process without a drain and reaps it.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	s.readers.Wait()
	_ = s.cmd.Wait() // the kill is the expected exit status
}

// firstAnswer polls the server with plain requests until one valid
// reply arrives, and returns the number of requests it sent.
func firstAnswer(addr *net.UDPAddr, timeout time.Duration) (sent int, err error) {
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	buf := make([]byte, 2048)
	for time.Now().Before(deadline) {
		t1 := ntptime.FromTime(time.Now())
		req := ntppkt.NewClient(ntppkt.Version4, t1)
		if _, err := conn.Write(req.Encode(nil)); err != nil {
			return sent, err
		}
		sent++
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
		for {
			n, err := conn.Read(buf)
			if err != nil {
				break // timeout: send again; refused: not bound yet
			}
			p, err := ntppkt.Decode(buf[:n])
			if err == nil && p.ValidateServerReply(t1) == nil {
				return sent, nil
			}
		}
	}
	return sent, fmt.Errorf("no valid reply from %v within %v", addr, timeout)
}

// serverStats are the counters of the server's stats line.
type serverStats map[string]uint64

// parseStats reads the key=value counters of a stats line
// ("served=12 limited=0 ... health=healthy nts-served=3 ...").
func parseStats(line string) serverStats {
	st := serverStats{}
	for _, f := range strings.Fields(line) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			st[k] = n
		}
	}
	return st
}

// procCPU returns a process's CPU time summed over its threads' run
// time in /proc/<pid>/task/*/schedstat (nanosecond resolution; the
// utime and stime of /proc/<pid>/stat tick at 10 ms).
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return 0, err
	}
	if len(tasks) == 0 {
		return 0, fmt.Errorf("process %d has no tasks", pid)
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between glob and read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// procStatusField reads one "Key:   value" number from a status file.
func procStatusField(path, key string) (uint64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strconv.ParseUint(strings.Fields(v)[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// procCtxSwitches sums voluntary and involuntary context switches over
// every thread of the process.
func procCtxSwitches(pid int) (uint64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, t := range tasks {
		v, err1 := procStatusField(t, "voluntary_ctxt_switches")
		n, err2 := procStatusField(t, "nonvoluntary_ctxt_switches")
		if errors.Join(err1, err2) != nil {
			continue // thread exited between glob and read
		}
		total += v + n
	}
	return total, nil
}

// procPeakRSS returns the process's VmHWM (peak resident set) in bytes.
func procPeakRSS(pid int) (uint64, error) {
	kb, err := procStatusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return kb * 1024, err
}

// selfCPU returns this process's CPU time, all threads, from
// CLOCK_PROCESS_CPUTIME_ID (nanosecond resolution; getrusage ticks).
func selfCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error()) // present since Linux 2.6.12
	}
	return time.Duration(ts.Nano())
}

// stealTicks returns the host's cumulative steal time from /proc/stat
// (USER_HZ ticks; 0 where unavailable).
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseUint(f[8], 10, 64)
	return n
}
