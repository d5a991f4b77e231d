package net

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	stdnet "net"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/fleet"
)

// pipeWorkerEnv marks a process spawned by a pipe Runner; PipeMain checks
// it.
const pipeWorkerEnv = "USTA_PIPE_WORKER"

// pipeGrace bounds how long a closing pipe connection waits for its worker
// to exit on its own before killing it, and how long a read that hit the
// end of the worker's output waits for its exit status.
const pipeGrace = 2 * time.Second

// stderrTail is how much of a worker's stderr an error message quotes.
const stderrTail = 512

// NewPipe creates a runner whose n hosts (<= 0: GOMAXPROCS) are worker
// processes it spawns itself: dialing a host starts Command with its stdin
// and stdout as the connection, and a worker lost mid-run is respawned
// like a redialed daemon, its unreported jobs retried. Each worker
// advertises capacity 1 and runs one work item at a time, so default
// items are rounded up to whole multiples of its pool width to keep the
// pool full. A run that leaves FleetConfig.Workers unset gives each a
// pool width of ⌈GOMAXPROCS/n⌉, so the processes together do not
// oversubscribe the machine. A worker that cannot be started or does not
// answer the hello is not respawned; once every host is gone the fleet is
// down.
func NewPipe(n int) *Runner {
	hosts := make([]string, fleet.NormalizeWorkers(n))
	for i := range hosts {
		hosts[i] = fmt.Sprintf("pipe-%d", i)
	}
	return &Runner{Hosts: hosts, pipes: true}
}

// PipeMain serves the coordinator that spawned this process and exits,
// when a pipe Runner spawned it with the default Command; otherwise it
// returns at once. Call it first thing in main — before flag parsing — in
// any binary that coordinates pipe runs with the default Command, and in
// TestMain of packages whose tests do.
func PipeMain() {
	if os.Getenv(pipeWorkerEnv) != "1" {
		return
	}
	if ServeStdio(context.Background()) != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// ServeStdio is the pipe worker: the Server's connection loop, with
// capacity 1, over this process's stdin and stdout, until the coordinator
// hangs up or ctx is cancelled. Protocol errors are logged to stderr,
// whose tail the coordinator quotes when the worker dies, and returned.
func ServeStdio(ctx context.Context) error {
	s := &Server{Capacity: 1, Logf: log.New(os.Stderr, "", 0).Printf}
	return s.handleConn(ctx, &pipeConn{r: os.Stdin, w: os.Stdout, name: "stdio"}, make(chan struct{}, 1))
}

// spawn starts one pipe worker and returns its stdio as a connection. The
// coordinator's pipe ends are pollable, so read and write deadlines —
// heartbeat timeouts and cancellation pokes — work as on a socket.
func (r *Runner) spawn(name string) (stdnet.Conn, error) {
	argv := r.Command
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("resolve worker binary: %w", err)
		}
		argv = []string{exe}
	}
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, err
	}
	c := &pipeConn{r: outR, w: inW, name: pipeAddr(name), stderr: &tailWriter{}, exited: make(chan struct{})}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), pipeWorkerEnv+"=1")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = inR, outW, c.stderr
	cmd.WaitDelay = pipeGrace // a grandchild holding stderr cannot stall the reap
	err = cmd.Start()
	inR.Close() // the worker holds its own copies
	outW.Close()
	if err != nil {
		outR.Close()
		inW.Close()
		return nil, fmt.Errorf("start worker: %w", err)
	}
	c.cmd = cmd
	go func() {
		c.waitErr = cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// pipeConn is a stdnet.Conn over two pipe ends: on the coordinator side a
// spawned worker's stdout and stdin, in the worker the process's own stdin
// and stdout.
type pipeConn struct {
	r, w *os.File
	name pipeAddr

	// Coordinator side only: the worker process, its stderr tail, and its
	// exit status, valid once exited is closed.
	cmd       *exec.Cmd
	stderr    *tailWriter
	exited    chan struct{}
	waitErr   error
	closeOnce sync.Once
}

// Read reads the peer's bytes. On the coordinator side the end of the
// worker's output means the worker is gone: the error says how, with the
// tail of its stderr.
func (c *pipeConn) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err == io.EOF && c.cmd != nil {
		err = c.exitErr()
	}
	return n, err
}

// exitErr describes a worker whose output ended.
func (c *pipeConn) exitErr() error {
	select {
	case <-c.exited:
	case <-time.After(pipeGrace):
		return fmt.Errorf("worker closed its output%s", c.stderr.suffix())
	}
	if c.waitErr != nil {
		return fmt.Errorf("worker died: %v%s", c.waitErr, c.stderr.suffix())
	}
	return fmt.Errorf("worker exited%s", c.stderr.suffix())
}

func (c *pipeConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// Close hangs up. On the coordinator side the worker reads the end of its
// stdin and exits; one still running after pipeGrace is killed. Either way
// the process is reaped before Close returns.
func (c *pipeConn) Close() error {
	c.closeOnce.Do(func() {
		c.w.Close()
		c.r.Close()
		if c.cmd == nil {
			return
		}
		select {
		case <-c.exited:
		case <-time.After(pipeGrace):
			c.cmd.Process.Kill()
			<-c.exited
		}
	})
	return nil
}

func (c *pipeConn) LocalAddr() stdnet.Addr  { return c.name }
func (c *pipeConn) RemoteAddr() stdnet.Addr { return c.name }

func (c *pipeConn) SetDeadline(t time.Time) error {
	return errors.Join(c.r.SetReadDeadline(t), c.w.SetWriteDeadline(t))
}

func (c *pipeConn) SetReadDeadline(t time.Time) error  { return c.r.SetReadDeadline(t) }
func (c *pipeConn) SetWriteDeadline(t time.Time) error { return c.w.SetWriteDeadline(t) }

// pipeAddr names a pipe connection's worker: the runner's host name on
// the coordinator side, "stdio" in the worker.
type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

// tailWriter keeps the last stderrTail bytes (at least) of a worker's
// stderr.
type tailWriter struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > 2*stderrTail {
		t.b = append(t.b[:0], t.b[len(t.b)-stderrTail:]...)
	}
	return len(p), nil
}

// suffix formats the captured tail for an error message ("" when empty).
func (t *tailWriter) suffix() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := bytes.TrimSpace(t.b)
	if len(s) > stderrTail {
		s = s[len(s)-stderrTail:]
	}
	if len(s) == 0 {
		return ""
	}
	return fmt.Sprintf("; stderr: %s", s)
}
