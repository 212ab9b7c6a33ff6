package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"gossip/internal/corpus"
	"gossip/internal/corpusd"
)

// serveMain runs `gossipsim serve`: the corpus HTTP daemon. It opens
// (and indexes) a corpus directory and serves its query surface — the
// run listing, per-run manifests, streamed cells, trends, regression
// compares, Prometheus-style metrics, and an HTML dashboard — until
// interrupted (SIGINT/SIGTERM shut it down gracefully).
//
//	gossipsim serve -dir corpus
//	gossipsim serve -dir corpus -addr :8477 -manifest corpus.manifest.json
func serveMain(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveCorpus(ctx, args, nil, stdout, stderr)
}

// serveCorpus is serveMain under a caller-owned lifetime: the server
// runs until ctx is canceled. ready, when non-nil, observes the bound
// address (the -addr ":0" form picks a free port).
func serveCorpus(ctx context.Context, args []string, ready func(net.Addr), stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gossipsim serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "corpus", "corpus directory (created if missing)")
	addr := fs.String("addr", "127.0.0.1:8477", "listen address (\":0\" picks a free port)")
	manifest := fs.String("manifest", "", "corpus manifest file declaring tolerance profiles and named grids")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: gossipsim serve [-dir corpus] [-addr host:port] [-manifest corpus.manifest.json]")
		return 2
	}
	store, err := corpus.Open(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var mf *corpus.ManifestFile
	if *manifest != "" {
		if mf, err = corpus.LoadManifestFile(*manifest); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	srv, err := corpusd.New(store, mf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	err = corpusd.ListenAndServe(ctx, *addr, srv, func(a net.Addr) {
		fmt.Fprintf(stdout, "corpusd: serving %s on http://%s\n", *dir, a)
		if ready != nil {
			ready(a)
		}
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
