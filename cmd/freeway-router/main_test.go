package main

import (
	"testing"
	"time"

	"freewayml/internal/dist"
)

// TestWriteTimeoutOutlastsRetryBudget: the write deadline, which starts once
// a request's headers are read, outlasts a body read to ReadTimeout followed
// by a forward that spends its whole retry budget, so the client gets the
// router's 502 envelope rather than a dropped connection.
func TestWriteTimeoutOutlastsRetryBudget(t *testing.T) {
	for _, cfg := range []dist.Config{
		{ // the flags' defaults
			RequestTimeout: dist.DefaultRequestTimeout,
			Retries:        dist.DefaultRetries,
			RetryBase:      dist.DefaultRetryBase,
			RetryMax:       dist.DefaultRetryMax,
		},
		{RequestTimeout: time.Minute, Retries: 9},
	} {
		srv := newServer(nil, cfg)
		if need := srv.ReadTimeout + cfg.RetryBudget(); srv.WriteTimeout <= need {
			t.Errorf("retries %d × %v: write timeout %v, want beyond %v", cfg.Retries, cfg.RequestTimeout, srv.WriteTimeout, need)
		}
	}
}
