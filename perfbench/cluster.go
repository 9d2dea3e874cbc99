package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oarsmt/client"
	"oarsmt/wire"
)

// workerFlags are the worker's daemon flags besides its address, its
// coordinator and its store directory. The pool is twice -cache, so about
// half the hot hits come from the memory LRU and half from the store.
var workerFlags = []string{"-cache", "16", "-worker-id", "w1"}

// coordFlags are the coordinator's daemon flags besides its address.
var coordFlags = []string{"-coordinator"}

// daemon is one oarsmt-serve child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string        // host:port it listens on
	exited chan struct{} // closed once its stderr reached EOF
}

// startDaemon starts oarsmt-serve on a kernel-chosen port and returns once
// the daemon logs its listen address. The listener exists before that line
// is written, so the daemon accepts connections from then on; no polling
// is involved.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrc := make(chan string, 1) // the reader sends at most once and never waits
	var logTail []string
	//oarsmt:allow rawgo(benchmark plumbing: drains the child daemon's stderr until it exits, no routing state involved)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if len(logTail) < 20 {
				logTail = append(logTail, line)
			}
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
				addrc <- strings.Fields(rest)[0]
				sent = true
			}
		}
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.exited:
		_ = cmd.Wait()
		return nil, fmt.Errorf("%s %v exited before listening: %s", bin, args, strings.Join(logTail, "; "))
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s %v: no listen address within 60s", bin, args)
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 20 s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	_ = d.cmd.Wait()
}

// vmHWM returns a process's peak resident memory in MB ("self" or a pid).
func vmHWM(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}

// cluster is a coordinator with one registered worker, each a child
// process, plus the benchmark's clients for them.
type cluster struct {
	coord, worker *daemon
	storeDir      string
	viaCoord      *client.Client // the measured path
	direct        *client.Client // straight to the worker, for the hop probe
}

// maxConns bounds the benchmark's connections per daemon to the machine's
// two cores' worth of callers.
const maxConns = 2

func newClient(addr string) (*client.Client, error) {
	tr := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	return client.New(client.Config{
		BaseURL:    "http://" + addr,
		HTTPClient: &http.Client{Transport: tr},
		Timeout:    60 * time.Second,
	})
}

// startCluster starts the coordinator, then the worker with a fresh store
// directory; the worker registers before it logs its address.
func startCluster(o options) (*cluster, error) {
	dir, err := os.MkdirTemp(o.work, "store-")
	if err != nil {
		return nil, err
	}
	c := &cluster{storeDir: dir}
	if c.coord, err = startDaemon(o.serveBin, coordFlags...); err != nil {
		c.stop()
		return nil, err
	}
	wargs := append([]string{"-register", "http://" + c.coord.addr, "-store-dir", dir}, workerFlags...)
	if c.worker, err = startDaemon(o.serveBin, wargs...); err != nil {
		c.stop()
		return nil, err
	}
	if c.viaCoord, err = newClient(c.coord.addr); err != nil {
		c.stop()
		return nil, err
	}
	if c.direct, err = newClient(c.worker.addr); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// stop stops the worker, then the coordinator, and removes the store.
func (c *cluster) stop() {
	if c.worker != nil {
		c.worker.stop()
	}
	if c.coord != nil {
		c.coord.stop()
	}
	os.RemoveAll(c.storeDir)
}

// peakRSS is the summed VmHWM of coordinator and worker.
func (c *cluster) peakRSS() (float64, error) {
	var sum float64
	for _, d := range []*daemon{c.coord, c.worker} {
		v, err := vmHWM(strconv.Itoa(d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// counters reads the worker's and the coordinator's /v1/stats.
func (c *cluster) counters(ctx context.Context) (*wire.Stats, *wire.ClusterStats, error) {
	ws, err := c.direct.Stats(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("worker stats: %w", err)
	}
	cs, err := c.viaCoord.ClusterStats(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("coordinator stats: %w", err)
	}
	return ws, cs, nil
}

// printFlags prints the daemons' command lines with the results.
func (c *cluster) printFlags() {
	fmt.Printf("daemon coordinator: oarsmt-serve -addr 127.0.0.1:0 %s\n", strings.Join(coordFlags, " "))
	fmt.Printf("daemon worker: oarsmt-serve -addr 127.0.0.1:0 -register <coordinator> -store-dir <fresh temp dir> %s\n", strings.Join(workerFlags, " "))
}
