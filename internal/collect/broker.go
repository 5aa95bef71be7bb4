package collect

import (
	"sync"
	"sync/atomic"

	"pinsql/internal/dbsim"
)

// Broker is the in-process substitute for the Kafka layer of §IV-A: topics
// fan out query-log records to any number of subscribers. Delivery is
// lossy under backpressure (a full subscriber buffer drops the record and
// counts it), which matches the monitoring pipeline's priorities — never
// slow the producer, i.e. the database instance.
type Broker struct {
	mu     sync.RWMutex
	subs   map[string][]*subscription
	lost   map[string]*atomic.Int64 // cumulative per-topic drop counts
	closed bool
}

type subscription struct {
	ch      chan dbsim.LogRecord
	done    chan struct{} // closed with ch; PublishBlocking's escape hatch
	dropped atomic.Int64  // atomic: Publish only holds the read lock
	closed  bool
}

// NewBroker creates an empty broker.
func NewBroker() *Broker {
	return &Broker{
		subs: make(map[string][]*subscription),
		lost: make(map[string]*atomic.Int64),
	}
}

// Subscribe registers a consumer on a topic with the given buffer size and
// returns the record channel plus a cancel function. Cancel closes the
// channel after detaching it from the topic.
func (b *Broker) Subscribe(topic string, buffer int) (<-chan dbsim.LogRecord, func()) {
	if buffer < 1 {
		buffer = 1
	}
	sub := &subscription{ch: make(chan dbsim.LogRecord, buffer), done: make(chan struct{})}
	b.mu.Lock()
	b.subs[topic] = append(b.subs[topic], sub)
	if b.lost[topic] == nil {
		b.lost[topic] = new(atomic.Int64)
	}
	b.mu.Unlock()

	cancel := func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		subs := b.subs[topic]
		for i, s := range subs {
			if s == sub {
				b.subs[topic] = append(subs[:i], subs[i+1:]...)
				break
			}
		}
		closeSub(sub)
	}
	return sub.ch, cancel
}

// closeSub closes a subscription's channel exactly once. Callers must hold
// b.mu, which is what makes the once-ness safe.
func closeSub(sub *subscription) {
	if !sub.closed {
		sub.closed = true
		close(sub.done)
		close(sub.ch)
	}
}

// Publish delivers a record to every subscriber of the topic, dropping it
// for subscribers whose buffers are full. Concurrent publishers only share
// the read lock, so the drop counters are atomics.
func (b *Broker) Publish(topic string, rec dbsim.LogRecord) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return
	}
	for _, sub := range b.subs[topic] {
		select {
		case sub.ch <- rec:
		default:
			sub.dropped.Add(1)
			b.lost[topic].Add(1)
		}
	}
}

// Dropped reports how many records have been dropped on the topic across
// all of its subscribers (including canceled ones) since the broker was
// created — the pipeline's backpressure-loss gauge. The count survives
// Close so a window's loss can be read after teardown.
func (b *Broker) Dropped(topic string) int64 {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if c := b.lost[topic]; c != nil {
		return c.Load()
	}
	return 0
}

// PublishBlocking delivers a record to every subscriber of the topic,
// waiting for buffer space instead of dropping — the lossless mode trace
// replay needs: a replayed window can be pumped arbitrarily faster than
// real time, and a dropped record would break the bit-reproducibility of
// its diagnosis. The producer is throttled to the consumer, so callers
// must keep every subscription of the topic draining until the publisher
// is done, and must not cancel a subscription (or Close the broker) while
// a blocking publish is in flight.
func (b *Broker) PublishBlocking(topic string, rec dbsim.LogRecord) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return
	}
	// The snapshot lives on the stack up to four subscribers, so the
	// common lossless publish allocates nothing.
	var few [4]*subscription
	subs := append(few[:0], b.subs[topic]...)
	b.mu.RUnlock()
	for _, sub := range subs {
		select {
		case <-sub.done:
			continue // cancelled since the snapshot
		default:
		}
		select {
		case sub.ch <- rec:
		case <-sub.done:
		}
	}
}

// Sink returns a dbsim.LogSink publishing to the topic.
func (b *Broker) Sink(topic string) dbsim.LogSink {
	return func(rec dbsim.LogRecord) { b.Publish(topic, rec) }
}

// BlockingSink returns a dbsim.LogSink publishing losslessly to the topic
// (see PublishBlocking for the draining contract).
func (b *Broker) BlockingSink(topic string) dbsim.LogSink {
	return func(rec dbsim.LogRecord) { b.PublishBlocking(topic, rec) }
}

// Close detaches and closes every subscription; subsequent publishes are
// no-ops.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for topic, subs := range b.subs {
		for _, sub := range subs {
			closeSub(sub)
		}
		delete(b.subs, topic)
	}
}

// StreamAggregator is the Flink substitute: a goroutine that drains a
// broker subscription into a Collector.
type StreamAggregator struct {
	collector *Collector
}

// NewStreamAggregator wraps a collector.
func NewStreamAggregator(c *Collector) *StreamAggregator {
	return &StreamAggregator{collector: c}
}

// Consume starts draining ch into the collector and returns a channel that
// closes when ch does.
func (a *StreamAggregator) Consume(ch <-chan dbsim.LogRecord) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rec := range ch {
			a.collector.Ingest(rec)
		}
	}()
	return done
}
