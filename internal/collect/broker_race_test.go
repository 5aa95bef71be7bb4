package collect

// Concurrency suite for the broker, designed to run under `go test -race`.

import (
	"sync"
	"testing"

	"pinsql/internal/dbsim"
)

// TestBrokerConcurrentPublishDeliversAll hammers one topic from many
// publishers into a small buffer with one consumer draining, then checks
// conservation: every published record is delivered exactly once.
func TestBrokerConcurrentPublishDeliversAll(t *testing.T) {
	const (
		publishers = 8
		perPub     = 500
		buffer     = 16
	)
	b := NewBroker()
	defer b.Close()
	ch, cancel := b.Subscribe("hot", buffer)
	got := make(chan int)
	go func() {
		n := 0
		for range ch {
			n++
		}
		got <- n
	}()

	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPub; i++ {
				b.PublishBlocking("hot", dbsim.LogRecord{ArrivalMs: int64(i)})
			}
		}()
	}
	wg.Wait()
	cancel()
	if n := <-got; n != publishers*perPub {
		t.Errorf("delivered %d, want %d published", n, publishers*perPub)
	}
}

// TestBrokerPublishSubscribeCancelChaos runs publishers, subscribers that
// join mid-stream, draining and cancellation concurrently across topics;
// the assertion is simply that the race detector stays quiet and nothing
// deadlocks or panics. Subscriptions are cancelled only once the
// publishers are done, as PublishBlocking requires.
func TestBrokerPublishSubscribeCancelChaos(t *testing.T) {
	b := NewBroker()
	topics := []string{"a", "b", "c"}

	var subs, drains sync.WaitGroup
	var mu sync.Mutex
	var cancels []func()
	for s := 0; s < 12; s++ {
		subs.Add(1)
		go func(s int) {
			defer subs.Done()
			ch, cancel := b.Subscribe(topics[s%len(topics)], 8)
			mu.Lock()
			cancels = append(cancels, cancel)
			mu.Unlock()
			drains.Add(1)
			go func() {
				defer drains.Done()
				for range ch {
				}
			}()
		}(s)
	}
	var pubs sync.WaitGroup
	for p := 0; p < 4; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for i := 0; i < 2000; i++ {
				b.PublishBlocking(topics[i%len(topics)], dbsim.LogRecord{ArrivalMs: int64(p*10000 + i)})
			}
		}(p)
	}
	pubs.Wait()
	subs.Wait()
	var cancelling sync.WaitGroup
	for _, cancel := range cancels {
		cancelling.Add(2)
		go func() { defer cancelling.Done(); cancel() }()
		go func() { defer cancelling.Done(); cancel() }() // canceling twice must be safe
	}
	cancelling.Wait()
	drains.Wait()
	b.Close()
	b.Close() // closing twice must be safe

	// Post-close publishes are no-ops, not panics.
	b.PublishBlocking("a", dbsim.LogRecord{})
}
