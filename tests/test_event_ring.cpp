// Stress tests for the misuse-event transport (src/lockdep/
// event_ring.hpp) and the JSONL trace exporter (trace_export.hpp):
//   * EventRing wraparound — indices run past the capacity many times
//     over; FIFO order and drop accounting must stay exact;
//   * concurrent drain-while-writing — a producer thread emits through
//     TraceBuffer while a consumer drains, which is exactly the
//     SPSC contract the rings claim (TSan runs this in CI);
//   * the JSONL exporter — a schema record, then one well-formed line
//     per drained event, append semantics, verdict/label fields when
//     present, byte for byte what the fprintf formatter it replaced
//     wrote.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/rw/crw.hpp"
#include "core/tas.hpp"
#include "lockdep/event_ring.hpp"
#include "lockdep/lockdep.hpp"
#include "lockdep/trace_export.hpp"
#include "response/response.hpp"
#include "shield/rw_shield.hpp"
#include "shield/shield.hpp"

using namespace resilock;
using lockdep::EventKind;
using lockdep::EventRing;
using lockdep::TraceBuffer;
using lockdep::TraceEvent;

namespace {

TraceEvent make_event(std::uint64_t seq) {
  TraceEvent e;
  e.ns = seq;
  e.kind = EventKind::kDoubleUnlock;
  return e;
}

// The global buffer accumulates across tests; start clean.
void clear_trace() { TraceBuffer::instance().drain_all(); }

constexpr const char* kSchemaLine =
    "{\"schema\":\"resilock-trace\",\"version\":2}";

}  // namespace

// ---------------------------------------------------------------------
// EventRing wraparound.
// ---------------------------------------------------------------------

TEST(EventRing, FillDropAndDrainExactly) {
  EventRing r;
  const std::size_t extra = 17;
  for (std::uint64_t i = 0; i < EventRing::kCapacity + extra; ++i) {
    const bool pushed = r.push(make_event(i));
    EXPECT_EQ(pushed, i < EventRing::kCapacity) << i;
  }
  EXPECT_EQ(r.dropped(), extra);
  // The retained prefix comes out in FIFO order; the overflow is gone.
  TraceEvent e;
  for (std::uint64_t i = 0; i < EventRing::kCapacity; ++i) {
    ASSERT_TRUE(r.pop(e));
    EXPECT_EQ(e.ns, i);
  }
  EXPECT_FALSE(r.pop(e));
}

TEST(EventRing, IndicesWrapManyTimes) {
  // Interleaved push/pop far beyond the capacity: the power-of-two
  // masking must never lose or duplicate an event.
  EventRing r;
  std::uint64_t next_out = 0;
  TraceEvent e;
  for (std::uint64_t i = 0; i < 20 * EventRing::kCapacity; ++i) {
    ASSERT_TRUE(r.push(make_event(i)));
    if (i % 3 != 0) {  // drain slower than we fill, then catch up
      ASSERT_TRUE(r.pop(e));
      EXPECT_EQ(e.ns, next_out++);
    }
    if (i % 3 == 2) {
      ASSERT_TRUE(r.pop(e));
      EXPECT_EQ(e.ns, next_out++);
    }
  }
  while (r.pop(e)) EXPECT_EQ(e.ns, next_out++);
  EXPECT_EQ(next_out, 20 * EventRing::kCapacity);
  EXPECT_EQ(r.dropped(), 0u);
}

TEST(EventRing, ConcurrentProducerConsumer) {
  // The SPSC contract proper: one producer, one consumer, live. The
  // producer retries on a full ring (each refused attempt bumps
  // dropped(), but no accepted event may be lost, duplicated, or
  // reordered).
  EventRing r;
  constexpr std::uint64_t kEvents = 200000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      while (!r.push(make_event(i))) std::this_thread::yield();
    }
  });
  std::uint64_t next = 0;
  TraceEvent e;
  while (next < kEvents) {
    if (r.pop(e)) {
      ASSERT_EQ(e.ns, next);  // strict FIFO, nothing torn
      ++next;
    }
  }
  producer.join();
  EXPECT_FALSE(r.pop(e));
}

// ---------------------------------------------------------------------
// TraceBuffer: drain-while-writing.
// ---------------------------------------------------------------------

TEST(TraceBuffer, DrainWhileWriting) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  // A unique lock pointer marks this test's events among whatever other
  // tests left in other threads' rings.
  int marker = 0;
  constexpr std::uint64_t kEvents = 50000;
  const std::uint64_t dropped_before = tb.dropped();
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      tb.emit(EventKind::kNonOwnerUnlock, &marker,
              static_cast<std::uint16_t>(i >> 16),
              static_cast<std::uint16_t>(i & 0xFFFF));
    }
    done.store(true, std::memory_order_release);
  });
  std::uint64_t received = 0, last_seq = 0;
  bool ordered = true;
  auto sink = [&](const TraceEvent& e) {
    if (e.lock != &marker) return;
    const std::uint64_t seq =
        (static_cast<std::uint64_t>(e.a) << 16) | e.b;
    if (received > 0 && seq <= last_seq) ordered = false;
    last_seq = seq;
    ++received;
  };
  while (!done.load(std::memory_order_acquire)) {
    tb.drain(sink);
  }
  tb.drain(sink);
  producer.join();
  tb.drain(sink);
  const std::uint64_t dropped = tb.dropped() - dropped_before;
  // Every event was either delivered or counted as dropped — none
  // vanished, none duplicated, and delivery preserved emission order.
  EXPECT_EQ(received + dropped, kEvents);
  EXPECT_TRUE(ordered);
  EXPECT_GT(received, 0u);
}

// ---------------------------------------------------------------------
// JSONL exporter.
// ---------------------------------------------------------------------

TEST(TraceExport, WritesOneWellFormedLinePerEvent) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  int lock_a = 0;
  tb.emit(EventKind::kDoubleUnlock, &lock_a);
  tb.emit(EventKind::kOrderInversion, &lock_a, 3, 4,
          static_cast<std::uint8_t>(response::Action::kLog));

  const std::string path =
      ::testing::TempDir() + "resilock_trace_test.jsonl";
  std::remove(path.c_str());
  std::size_t written = 0;
  ASSERT_TRUE(lockdep::export_trace_jsonl(path.c_str(), &written));
  EXPECT_EQ(written, 2u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  // A new file opens with the schema record, then one line per event.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], kSchemaLine);
  EXPECT_NE(lines[1].find("\"kind\":\"double-unlock\""), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("\"kind\":\"order-inversion\""),
            std::string::npos);
  EXPECT_NE(lines[2].find("\"a\":3"), std::string::npos);
  EXPECT_NE(lines[2].find("\"verdict\":\"log\""), std::string::npos);
  for (const auto& l : lines) {  // each line is one {...} object
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }

  // Append semantics: a second dump adds lines, never truncates, and
  // writes no second schema record.
  tb.emit(EventKind::kUnbalancedUnlock, &lock_a);
  ASSERT_TRUE(lockdep::export_trace_jsonl(path.c_str(), &written));
  EXPECT_EQ(written, 1u);
  std::ifstream again(path);
  std::size_t count = 0;
  for (std::string line; std::getline(again, line);) ++count;
  EXPECT_EQ(count, 4u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Rw trace payloads: every intercepted rw misuse carries the hold's
// AccessMode and the indicator's reader estimate, and misuse events
// carry the class they are attributed to.
// ---------------------------------------------------------------------

TEST(TracePayload, RwMisuseCarriesModeAndReaderEstimate) {
  clear_trace();
  shield::ShieldPolicyGuard policy(shield::ShieldPolicy::kSuppress);
  response::ResponseRulesGuard rules("");
  using Rw = CrwLock<kOriginal, SplitReadIndicator, RwPreference::kNeutral>;
  RwShield<Rw> rw;
  Rw::Context reader_ctx, bogus_ctx;
  rw.rlock(reader_ctx);  // one live reader: the estimate at interception
  std::thread misuser([&] {
    Rw::Context t_bogus;
    EXPECT_FALSE(rw.wunlock(t_bogus));  // not held: write-side misuse
  });
  misuser.join();
  EXPECT_TRUE(rw.runlock(reader_ctx));
  EXPECT_FALSE(rw.runlock(bogus_ctx));  // §4 depart-without-arrive

  bool saw_write_side = false, saw_read_side = false;
  for (const auto& e : TraceBuffer::instance().drain_all()) {
    if (e.lock != &rw) continue;
    if (e.kind == EventKind::kUnbalancedUnlock) {
      // wunlock misuse: write-side op, one reader live at interception.
      EXPECT_EQ(e.mode, static_cast<std::uint8_t>(AccessMode::kWrite));
      EXPECT_EQ(e.readers, 1u);
      // Attributed to the shield's (shared) lockdep class.
      EXPECT_EQ(e.a, rw.lockdep_class());
      saw_write_side = true;
    }
    if (e.kind == EventKind::kUnbalancedReadUnlock) {
      EXPECT_EQ(e.mode, static_cast<std::uint8_t>(AccessMode::kRead));
      EXPECT_EQ(e.readers, 0u);  // the indicator never skewed
      EXPECT_EQ(e.a, rw.lockdep_class());
      saw_read_side = true;
    }
  }
  EXPECT_TRUE(saw_write_side);
  EXPECT_TRUE(saw_read_side);
}

TEST(TracePayload, ExclusiveShieldMisuseCarriesItsClass) {
  clear_trace();
  shield::ShieldPolicyGuard policy(shield::ShieldPolicy::kSuppress);
  response::ResponseRulesGuard rules("");
  Shield<TasLock> lock;
  lock.acquire();
  lock.release();
  EXPECT_FALSE(lock.release());  // double unlock, intercepted
  bool saw = false;
  for (const auto& e : TraceBuffer::instance().drain_all()) {
    if (e.lock != &lock) continue;
    EXPECT_EQ(e.kind, EventKind::kDoubleUnlock);
    EXPECT_EQ(e.a, lock.lockdep_class());
    EXPECT_EQ(e.mode, lockdep::kNoMode);  // exclusive family: no payload
    saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(TraceExport, RwPayloadAndClassFieldsInJsonl) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  int lock_a = 0;
  // Hand-rolled rw misuse event: class 3, read-mode hold, 5 readers.
  tb.emit(EventKind::kUnbalancedReadUnlock, &lock_a, 3,
          lockdep::kNoClassTag,
          static_cast<std::uint8_t>(response::Action::kSuppress),
          static_cast<std::uint8_t>(AccessMode::kRead), 5);
  // Payload-free exclusive event: no mode/readers/cls fields.
  tb.emit(EventKind::kDoubleUnlock, &lock_a);

  const std::string path =
      ::testing::TempDir() + "resilock_trace_payload.jsonl";
  std::remove(path.c_str());
  std::size_t written = 0;
  ASSERT_TRUE(lockdep::export_trace_jsonl(path.c_str(), &written));
  EXPECT_EQ(written, 2u);
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], kSchemaLine);
  EXPECT_NE(lines[1].find("\"kind\":\"unbalanced-read-unlock\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"cls\":3"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"mode\":\"read\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"readers\":5"), std::string::npos);
  EXPECT_EQ(lines[2].find("\"mode\""), std::string::npos) << lines[2];
  EXPECT_EQ(lines[2].find("\"cls\""), std::string::npos) << lines[2];
  std::remove(path.c_str());
}

TEST(TraceExport, DrainingExportLeavesRingsEmpty) {
  clear_trace();
  auto& tb = TraceBuffer::instance();
  int lock_a = 0;
  tb.emit(EventKind::kReentrantRelock, &lock_a);
  // Write through a FILE* as the atexit path does.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  EXPECT_GE(lockdep::write_trace_jsonl(f), 1u);
  std::fclose(f);
  EXPECT_EQ(tb.drain_all().size(), 0u);
}

// ---------------------------------------------------------------------
// Golden: the buffered formatter against the fprintf formatter it
// replaced, byte for byte apart from the fields that formatter did not
// have (`dur_ns` on records, `dropped` on drop records).
// ---------------------------------------------------------------------

namespace {

void reference_escaped(std::FILE* f, std::string_view s) {
  std::fputc('"', f);
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': std::fputs("\\\"", f); break;
      case '\\': std::fputs("\\\\", f); break;
      case '\n': std::fputs("\\n", f); break;
      case '\r': std::fputs("\\r", f); break;
      case '\t': std::fputs("\\t", f); break;
      default:
        if (c < 0x20) {
          std::fprintf(f, "\\u%04x", c);
        } else {
          std::fputc(ch, f);
        }
    }
  }
  std::fputc('"', f);
}

// The previous write_event_jsonl, kept as the reference.
std::string reference_line(const TraceEvent& e) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  lockdep::Graph& g = lockdep::Graph::instance();
  std::fprintf(f,
               "{\"ns\":%llu,\"kind\":\"%s\",\"lock\":\"%p\",\"pid\":%u",
               static_cast<unsigned long long>(e.ns), to_string(e.kind),
               e.lock, static_cast<unsigned>(e.pid));
  if (e.kind == EventKind::kOrderInversion ||
      e.kind == EventKind::kDeadlockCycle) {
    std::fprintf(f, ",\"a\":%u,\"b\":%u", static_cast<unsigned>(e.a),
                 static_cast<unsigned>(e.b));
    if (const char* la = g.label_of(e.a)) {
      std::fputs(",\"a_label\":", f);
      reference_escaped(f, la);
    }
    if (const char* lb = g.label_of(e.b)) {
      std::fputs(",\"b_label\":", f);
      reference_escaped(f, lb);
    }
  } else if (e.a != lockdep::kNoClassTag) {
    std::fprintf(f, ",\"cls\":%u", static_cast<unsigned>(e.a));
    if (const char* lc = g.label_of(e.a)) {
      std::fputs(",\"cls_label\":", f);
      reference_escaped(f, lc);
    }
  }
  if (e.mode != lockdep::kNoMode) {
    std::fprintf(f, ",\"mode\":\"%s\",\"readers\":%u",
                 to_string(static_cast<AccessMode>(e.mode)),
                 static_cast<unsigned>(e.readers));
  }
  if (e.verdict != lockdep::kNoVerdict && e.verdict < response::kActions) {
    std::fprintf(f, ",\"verdict\":\"%s\"",
                 to_string(static_cast<response::Action>(e.verdict)));
  }
  if (e.site != 0) {
    std::fprintf(f, ",\"site\":\"0x%llx\"",
                 static_cast<unsigned long long>(e.site));
  }
  std::fputs("}\n", f);
  std::fclose(f);
  std::string out(buf, len);
  std::free(buf);
  return out;
}

// `line` without the one field the reference lacks for `e.kind`;
// fails the test when that field is missing or misplaced.
std::string without_new_field(std::string line, const TraceEvent& e) {
  std::string field;
  if (lockdep::is_span_kind(e.kind)) {
    field = ",\"dur_ns\":" + std::to_string(e.dur_ns);
  } else if (e.kind == EventKind::kEventsDropped) {
    field = ",\"dropped\":" + std::to_string(e.dropped);
  } else {
    return line;
  }
  const std::size_t at = line.size() - 2;  // before the closing "}\n"
  EXPECT_GE(line.size(), field.size() + 2) << line;
  if (line.size() < field.size() + 2) return line;
  EXPECT_EQ(line.substr(at - field.size(), field.size()), field) << line;
  line.erase(at - field.size(), field.size());
  return line;
}

}  // namespace

TEST(TraceExport, BufferedFormatterMatchesTheFprintfOneByteForByte) {
  auto& g = lockdep::Graph::instance();
  int plain_obj = 0, evil_obj = 0, gone_obj = 0;
  const lockdep::ClassId plain = g.register_class(&plain_obj, "shield<MCS>");
  const lockdep::ClassId evil = g.register_class(
      &evil_obj, "db[\"main\"]\\path\n\ttab\x01\x1f end");
  const lockdep::ClassId gone = g.register_class(&gone_obj, "retired");
  g.retire_class(gone);  // a stale id: no label

  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* sink = open_memstream(&buf, &len);
  lockdep::JsonlWriter writer(sink);
  const std::uint32_t classes[] = {lockdep::kNoClassTag, plain, evil, gone};
  const std::uint8_t modes[] = {lockdep::kNoMode, 0, 1, 2};
  const std::uint8_t verdicts[] = {lockdep::kNoVerdict, 0, 1, 2, 3, 200};
  int lock_obj = 0;
  std::size_t cases = 0;
  for (std::size_t k = 0; k < lockdep::kEventKinds; ++k) {
    for (const std::uint32_t a : classes) {
      for (const std::uint32_t b : classes) {
        for (const std::uint8_t mode : modes) {
          for (const std::uint8_t verdict : verdicts) {
            TraceEvent e;
            e.kind = static_cast<EventKind>(k);
            e.ns = 1234567890123ull + cases;
            e.dur_ns = cases * 7;
            e.dropped = cases * 3 + 1;
            e.lock = cases % 5 == 0 ? nullptr : &lock_obj;
            e.pid = static_cast<std::uint32_t>(cases % 512);
            e.a = a;
            e.b = b;
            e.mode = mode;
            e.readers = static_cast<std::uint32_t>(cases % 9);
            e.verdict = verdict;
            e.site = cases % 3 == 0 ? 0 : 0x7f00deadbeefull + cases;
            if (cases % 97 == 0) writer.new_drain();
            const std::string got(writer.format(e));
            ASSERT_EQ(without_new_field(got, e), reference_line(e))
                << "kind " << to_string(e.kind);
            writer.write(e);
            ++cases;
          }
        }
      }
    }
  }
  std::fclose(sink);
  // write() puts out exactly what format() returned, line by line.
  std::size_t lines = 0;
  for (std::size_t i = 0; i < len; ++i) lines += buf[i] == '\n';
  std::free(buf);
  EXPECT_EQ(lines, cases);
  g.retire_class(evil);
  g.retire_class(plain);
}
