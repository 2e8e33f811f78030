package main

import (
	"context"
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

// buildDir is where the benchmark keeps everything it creates outside
// benchmark/out: the p2bnode binary and the per-run data directories. It
// lives in the checkout (never in /tmp) so the fsync and filesystem
// behaviour measured is that of the disk the repo sits on.
const buildDir = ".bench_build"

// scratchRoot is buildDir inside the checkout at root.
func scratchRoot(root string) string { return filepath.Join(root, buildDir) }

// moduleRoot walks up from the working directory to the directory holding
// this module's go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if blob, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(blob), "module p2b\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark: no go.mod of module p2b above the working directory")
		}
		dir = parent
	}
}

// buildNode compiles cmd/p2bnode from the tree into buildDir and returns
// the binary's path. The go tool makes this a no-op when nothing changed.
func buildNode(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(scratchRoot(root), "p2bnode")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/p2bnode")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("benchmark: building p2bnode: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the node binds it; the window is a race in principle and
// irrelevant on a benchmark box.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// node is one p2bnode process.
type node struct {
	name    string
	role    string // combined, relay or analyzer
	url     string
	args    []string
	logPath string

	cmd     *exec.Cmd
	started time.Time     // when the current process was spawned
	done    chan struct{} // closed once the process has been waited for
}

// cluster is the set of real nodes one run drives, plus the scratch
// directory their WALs and logs live in.
type cluster struct {
	bin string
	dir string // scratch directory, removed by close
	out string // benchmark/out, where logs are kept when a run fails

	nodes []*node
}

// newCluster creates the scratch directory of one set-up.
func newCluster(root, bin string) (*cluster, error) {
	if err := os.MkdirAll(scratchRoot(root), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot(root), "run-")
	if err != nil {
		return nil, err
	}
	return &cluster{bin: bin, dir: dir, out: filepath.Join(root, "benchmark", "out")}, nil
}

// plan lays out w's topology on free ports without starting anything.
func (c *cluster) plan(w workload) error {
	common := func(name string) ([]string, string, error) {
		port, err := freePort()
		if err != nil {
			return nil, "", err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		return []string{
			"-addr", addr, "-name", name, "-advertise", "http://" + addr,
			"-k", strconv.Itoa(w.k), "-arms", strconv.Itoa(w.arms), "-d", strconv.Itoa(w.d),
			"-threshold", strconv.Itoa(threshold), "-batch", strconv.Itoa(shufflerBatch),
			"-checkpoint-interval", ckptInterval.String(),
			"-data-dir", filepath.Join(c.dir, name), "-wal-sync", w.walSync,
		}, "http://" + addr, nil
	}
	add := func(name, role string, extra ...string) (*node, error) {
		args, url, err := common(name)
		if err != nil {
			return nil, err
		}
		n := &node{name: name, role: role, url: url, logPath: filepath.Join(c.dir, name+".log"),
			args: append(append(args, "-role", role), extra...)}
		c.nodes = append(c.nodes, n)
		return n, nil
	}
	if !w.fleet {
		_, err := add("node-1", "combined")
		return err
	}
	// Analyzers first: their URLs are what the relays forward to and what
	// the siblings push to.
	peer := []string{"-peer-token", peerToken}
	a1, err := add("analyzer-1", "analyzer", peer...)
	if err != nil {
		return err
	}
	a2, err := add("analyzer-2", "analyzer", peer...)
	if err != nil {
		return err
	}
	timers := []string{"-peer-sync", peerSync.String(), "-digest-sync", digestSync.String()}
	a1.args = append(append(a1.args, "-peers", a2.url), timers...)
	a2.args = append(append(a2.args, "-peers", a1.url), timers...)
	if _, err := add("relay-1", "relay", append(peer, "-downstream", a1.url)...); err != nil {
		return err
	}
	_, err = add("relay-2", "relay", append(peer, "-downstream", a2.url)...)
	return err
}

// byRole returns the nodes of one role in start order.
func (c *cluster) byRole(role string) []*node {
	var out []*node
	for _, n := range c.nodes {
		if n.role == role {
			out = append(out, n)
		}
	}
	return out
}

// ingestNodes are the nodes report POSTs go to; modelNodes the ones model
// GETs go to. On a single combined node both are that node.
func (c *cluster) ingestNodes() []*node {
	if r := c.byRole("relay"); len(r) > 0 {
		return r
	}
	return c.nodes
}

func (c *cluster) modelNodes() []*node {
	if a := c.byRole("analyzer"); len(a) > 0 {
		return a
	}
	return c.nodes
}

// start launches n (again, after a kill) with its log appended to logPath.
func (c *cluster) start(n *node) error {
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(c.bin, n.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	err = cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return fmt.Errorf("benchmark: starting %s: %w", n.name, err)
	}
	done := make(chan struct{})
	n.cmd, n.started, n.done = cmd, time.Now(), done
	go func() {
		_ = cmd.Wait() // a killed node exits non-zero by design
		close(done)
	}()
	return nil
}

// kill sends SIGKILL and waits until the process is gone.
func (c *cluster) kill(n *node) {
	if n.cmd == nil {
		return
	}
	_ = n.cmd.Process.Signal(syscall.SIGKILL) // already-exited is fine
	<-n.done
}

// startAll launches every planned node.
func (c *cluster) startAll() error {
	for _, n := range c.nodes {
		if err := c.start(n); err != nil {
			return err
		}
	}
	return nil
}

// awaitReady polls n's /healthz until it answers 200, the process dies or
// ctx ends. Connection refused returns at once, so the poll sleeps briefly
// between attempts instead of burning the core the node needs to boot.
func (c *cluster) awaitReady(ctx context.Context, client *http.Client, n *node) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(n.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-n.done:
			return fmt.Errorf("benchmark: %s exited before becoming ready (log: %s)", n.name, n.logPath)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("benchmark: %s not ready after 20s (log: %s)", n.name, n.logPath)
		}
	}
}

// close kills every node and removes the scratch directory. When keepLogs
// is set (the run failed) the node logs are first copied to benchmark/out.
func (c *cluster) close(keepLogs bool) {
	for _, n := range c.nodes {
		c.kill(n)
	}
	if keepLogs {
		if err := os.MkdirAll(c.out, 0o755); err == nil {
			for _, n := range c.nodes {
				if blob, err := os.ReadFile(n.logPath); err == nil {
					_ = os.WriteFile(filepath.Join(c.out, filepath.Base(c.dir)+"-"+n.name+".log"), blob, 0o644)
				}
			}
		}
	}
	_ = os.RemoveAll(c.dir)
}

// procUsage reads a live node's consumed CPU seconds (utime + stime) and
// peak resident set (VmHWM) from /proc.
func procUsage(pid int) (cpuSeconds, peakRSSMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line, in clock ticks of 1/100 s.
	rest := string(stat[strings.LastIndexByte(string(stat), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("benchmark: short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseFloat(f[11], 64)
	stime, _ := strconv.ParseFloat(f[12], 64)
	cpuSeconds = (utime + stime) / 100
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			peakRSSMB = kb / 1024
		}
	}
	return cpuSeconds, peakRSSMB, nil
}
