// Command smoke is the end-to-end acceptance harness for the fleserve
// daemon. Each phase (one per make target: service-smoke, certify-smoke,
// fleet-smoke, dsl-smoke and profile) boots real fleserve processes on
// ephemeral ports, drives them over HTTP, and fails unless what they serve
// equals what the same code computes in-process. CI runs the first four
// on every push:
//
//	go run ./internal/tools/smoke -phase service -bin bin/fleserve
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"time"

	"repro/internal/service"
)

// timeout bounds one phase from boot to shutdown.
const timeout = 5 * time.Minute

// config is what the flags set; each phase reads the fields it needs.
type config struct {
	fleserve, fleload, profileOut string
	profileSeconds                int
}

// phases is the harness: one phase per make target.
var phases = map[string]func(context.Context, config) error{
	"service": servicePhase, // a 100-job batch: dedup, cache replays, direct-run bytes
	"certify": certifyPhase, // a 10-scenario POST /certify batch: progress, verdicts, replays
	"fleet":   fleetPhase,   // coordinator and 2 workers: a worker killed in a lease, fleload, restart
	"dsl":     dslPhase,     // generated MAR specs served through -mar
	"profile": profilePhase, // a CPU profile under an E5-shaped load, for go tool pprof
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("smoke", flag.ContinueOnError)
	phase := fs.String("phase", "", "phase to run: service, certify, fleet, dsl or profile")
	var cfg config
	fs.StringVar(&cfg.fleserve, "bin", "bin/fleserve", "path to the fleserve binary under test")
	fs.StringVar(&cfg.fleload, "load", "bin/fleload", "path to the fleload binary (fleet phase)")
	fs.StringVar(&cfg.profileOut, "out", "bench/e5.cpu.pprof", "output path for the CPU profile (profile phase)")
	fs.IntVar(&cfg.profileSeconds, "seconds", 10, "CPU profile window in seconds (profile phase)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, ok := phases[*phase]
	if !ok {
		return fmt.Errorf("unknown phase %q (want service, certify, fleet, dsl or profile)", *phase)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := p(ctx, cfg); err != nil {
		return fmt.Errorf("%s: %w", *phase, err)
	}
	fmt.Printf("smoke: %s: PASS\n", *phase)
	return nil
}

// node is one running fleserve process.
type node struct {
	cmd    *exec.Cmd
	addr   string
	cancel context.CancelFunc
}

// listening matches the line fleserve prints once it has bound its port:
// with -addr 127.0.0.1:0 it is the only way to learn the address.
var listening = regexp.MustCompile(`listening on (\S+)`)

// startNode launches fleserve with args on an ephemeral port, waits for
// its listening line and checks /healthz.
func startNode(ctx context.Context, bin string, args ...string) (*node, error) {
	ctx, cancel := context.WithCancel(ctx)
	cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 10 * time.Second
	cmd.Stderr = os.Stderr
	n := &node{cmd: cmd, cancel: cancel}
	out, err := cmd.StdoutPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		cancel()
		return nil, fmt.Errorf("start %s %v: %w", bin, args, err)
	}
	scan := bufio.NewScanner(out)
	for n.addr == "" && scan.Scan() {
		if m := listening.FindStringSubmatch(scan.Text()); m != nil {
			n.addr = m[1]
		}
	}
	if n.addr == "" {
		n.stop()
		return nil, fmt.Errorf("%s %v exited without a listening line", bin, args)
	}
	// Keep draining stdout so the daemon never blocks on a full pipe; the
	// copy ends when the node exits.
	go io.Copy(io.Discard, out)
	if err := n.client().Health(ctx); err != nil {
		n.stop()
		return nil, fmt.Errorf("%s %v: healthz: %w", bin, args, err)
	}
	return n, nil
}

func (n *node) url() string             { return "http://" + n.addr }
func (n *node) client() *service.Client { return service.NewClient(n.url()) }

// stop shuts the node down: SIGINT, then SIGKILL if it has not exited
// within 10 s. Its exit status, a signal, has nothing to check, and
// stopping a node that already exited does nothing.
func (n *node) stop() {
	n.cancel()
	_ = n.cmd.Wait()
}

// kill SIGKILLs the node with no goodbye: the crash case under test.
func (n *node) kill() {
	_ = n.cmd.Process.Kill()
	_ = n.cmd.Wait()
}
