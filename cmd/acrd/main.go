// Command acrd runs the ACR checkpoint/restart control plane as a
// long-running service: a fleet scheduler behind an HTTP/JSON API, with
// every submission and result fsynced into a journal under -data and every
// job's checkpoints flushed to disk there, so the daemon itself is
// crash-restartable.
//
// Usage:
//
//	acrd -addr :7946 -data /var/lib/acrd -nodes 64 -spares 4
//	acrd -addr :7946 -data /var/lib/acrd -resume   # after a crash
//
// Endpoints: /healthz, /metrics (Prometheus), /api/v1/jobs (POST submit,
// GET list), /api/v1/jobs/{id}[/progress|/inventory|/verify|/flush|
// /restore], /api/v1/fleet, /api/v1/resume. See DESIGN.md §14.
//
// SIGINT/SIGTERM drain gracefully: running jobs are settled (not journaled
// done), so a subsequent -resume readmits them exactly like a crash would.
// Exit status: 0 clean shutdown, 1 startup or serve error.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"acr/internal/acrd"
	"acr/internal/buildinfo"
	"acr/internal/fleet"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7946", "HTTP listen address")
		dataDir   = flag.String("data", "", "durable state directory (required)")
		resume    = flag.Bool("resume", false, "replay the journal and readmit unfinished jobs")
		nodes     = flag.Int("nodes", 64, "physical node pool")
		spares    = flag.Int("spares", 4, "shared spare pool")
		bps       = flag.Float64("bytes-per-sec", 0, "disk-tier flush bandwidth budget (0 = unthrottled)")
		slots     = flag.Int("transfer-slots", 0, "concurrent disk transfers (0 = unlimited)")
		opTimeout = flag.Duration("op-timeout", 30*time.Second, "on-demand flush/restore timeout")
		authToken = flag.String("auth-token", "", "token required on mutating API routes (default $ACRD_TOKEN; empty = open)")

		remote     = flag.Bool("remote", false, "enable the remote object-store checkpoint tier")
		remEvery   = flag.Int("remote-every", 4, "default remote upload cadence in committed epochs")
		remLatency = flag.Duration("remote-latency", 0, "simulated remote per-op latency")
		remFault   = flag.Float64("remote-fault-rate", 0, "simulated remote per-op transient fault probability [0,1)")
		remSeed    = flag.Int64("remote-seed", 1, "remote fault-schedule seed (offset per job)")
		remBW      = flag.Float64("remote-bw", 0, "remote-tier upload bandwidth budget in bytes/sec (0 = unthrottled)")
	)
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if buildinfo.HandleFlag(os.Stdout, "acrd", *showVersion) {
		return
	}
	if *dataDir == "" {
		fatalf("-data is required")
	}
	if *authToken == "" {
		*authToken = os.Getenv("ACRD_TOKEN")
	}
	if *remFault < 0 || *remFault >= 1 {
		fatalf("-remote-fault-rate must be in [0,1), got %g", *remFault)
	}

	srv, err := acrd.New(acrd.Config{
		DataDir: *dataDir,
		Fleet: fleet.Config{
			Nodes:             *nodes,
			Spares:            *spares,
			BytesPerSec:       *bps,
			TransferSlots:     *slots,
			RemoteBytesPerSec: *remBW,
		},
		Resume:    *resume,
		OpTimeout: *opTimeout,
		AuthToken: *authToken,
		Remote: acrd.RemoteConfig{
			Enabled:   *remote,
			Every:     *remEvery,
			Latency:   *remLatency,
			FaultRate: *remFault,
			Seed:      *remSeed,
		},
	})
	if err != nil {
		fatalf("%v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		fatalf("listen %s: %v", *addr, err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "acrd: %s listening on http://%s (data %s)\n",
		buildinfo.Get("acrd").String(), ln.Addr(), *dataDir)
	if rep := srv.ResumeReport(); rep.Resumed {
		fmt.Fprintf(os.Stderr, "acrd: resume: %d readmitted, %d finished, %d cold; %d epochs salvaged, %d skipped\n",
			rep.Readmitted, rep.Finished, rep.ColdStarted, rep.SalvagedEpochs, rep.SkippedEpochs)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "acrd: %v; draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = hs.Shutdown(ctx)
		cancel()
		srv.Close()
	case err := <-errCh:
		srv.Close()
		fatalf("serve: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "acrd: "+format+"\n", args...)
	os.Exit(1)
}
