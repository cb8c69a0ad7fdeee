// Webhook delivery: alerts leave the process as JSON POSTs — the CRM
// integration surface the paper's "automatically generated sales
// leads" imply. Transport failures and 5xx responses are transient
// (the retry policy's problem); 4xx responses are the subscriber's
// configuration being wrong, which no retry fixes.
package alert

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"etap/internal/obs"
)

// WebhookDeliverer POSTs alerts to each subscription's WebhookURL.
type WebhookDeliverer struct {
	// Client is the HTTP client; nil means a shared client that keeps
	// up to 64 idle connections per receiver. Attempt deadlines come
	// from the retry policy's context, so the client needs no timeout
	// of its own.
	Client *http.Client
}

// webhookIdleConnsPerHost is how many idle connections the default
// client keeps per receiver. Hundreds of subscriber lanes post to a
// few receivers at once; http.DefaultClient keeps 2, so most
// deliveries would dial anew and leave a socket in TIME-WAIT.
const webhookIdleConnsPerHost = 64

// defaultWebhookClient serves every WebhookDeliverer without a Client.
var defaultWebhookClient = newWebhookClient()

func newWebhookClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = webhookIdleConnsPerHost
	return &http.Client{Transport: t}
}

// Deliver implements Deliverer.
func (wd *WebhookDeliverer) Deliver(ctx context.Context, sub Subscription, a Alert) error {
	body, err := json.Marshal(a)
	if err != nil {
		return &PermanentError{Err: fmt.Errorf("alert: encoding alert: %w", err)}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sub.WebhookURL, bytes.NewReader(body))
	if err != nil {
		return &PermanentError{Err: fmt.Errorf("alert: webhook %s: %w", sub.WebhookURL, err)}
	}
	req.Header.Set("Content-Type", "application/json")
	// W3C trace context: the receiver can join its logs to the trace the
	// 202 response named. Each retry carries a fresh span ID.
	if sc, ok := obs.SpanContextFrom(ctx); ok {
		req.Header.Set("traceparent", sc.TraceParent())
	}
	client := wd.Client
	if client == nil {
		client = defaultWebhookClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("alert: posting to %s: %w", sub.WebhookURL, err)
	}
	// Drain so the connection is reusable; the body content is the
	// subscriber's business.
	//etaplint:ignore error-swallowing -- response body content is irrelevant; only the status code matters
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	//etaplint:ignore error-swallowing -- nothing to do about a close error on a drained response
	resp.Body.Close()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return &PermanentError{Err: fmt.Errorf("alert: webhook %s answered %s", sub.WebhookURL, resp.Status)}
	default:
		return fmt.Errorf("alert: webhook %s answered %s", sub.WebhookURL, resp.Status)
	}
}
