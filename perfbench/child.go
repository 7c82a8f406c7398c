package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// child is a running server process (see serve.go for the protocol).
type child struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   *json.Decoder
	addrs []string
}

// startChild re-executes this binary as the server for workload w, pinned
// to cpus, and waits until every shard listens.
func startChild(w *workloadDef, seed int64, cpus string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-cpus", cpus)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, in: in, out: json.NewDecoder(bufio.NewReader(outPipe))}
	var ready childReady
	if err := c.out.Decode(&ready); err != nil {
		c.stop()
		return nil, fmt.Errorf("server child did not start: %w", err)
	}
	c.addrs = ready.Addrs
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// request sends one command and decodes the reply.
func (c *child) request(cmd string) (childStats, error) {
	var st childStats
	if _, err := io.WriteString(c.in, cmd+"\n"); err != nil {
		return st, fmt.Errorf("server child %s: %w", cmd, err)
	}
	if err := c.out.Decode(&st); err != nil {
		return st, fmt.Errorf("server child %s: %w", cmd, err)
	}
	return st, nil
}

// stop asks the child to exit and waits for it, killing it if it does not
// exit within ten seconds.
func (c *child) stop() error {
	io.WriteString(c.in, "quit\n") //nolint:errcheck // a dead child is what stop wants
	c.in.Close()
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck // Wait below reports the outcome
		return fmt.Errorf("server child killed after quit timeout: %v", <-done)
	}
}
