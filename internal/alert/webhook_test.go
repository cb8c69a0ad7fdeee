package alert

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// A WebhookDeliverer without a Client must reuse its connections when
// many lanes post to one receiver at once: 20 rounds of 16 concurrent
// deliveries may open no more than two rounds' worth.
func TestWebhookDelivererReusesConnections(t *testing.T) {
	const rounds, concurrent = 20, 16
	var opened atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	wd := &WebhookDeliverer{}
	sub := Subscription{ID: "sub-1", WebhookURL: srv.URL}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		wg.Add(concurrent)
		for i := 0; i < concurrent; i++ {
			go func() {
				defer wg.Done()
				if err := wd.Deliver(context.Background(), sub, Alert{}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if n := opened.Load(); n > 2*concurrent {
		t.Fatalf("%d deliveries opened %d connections, want at most %d", rounds*concurrent, n, 2*concurrent)
	}
}
