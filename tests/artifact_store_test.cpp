// Fault-injection tier for the content-addressed artifact store
// (src/store/artifact_store.hpp), modeled on the sa_cache_test merge
// suite: exact round trips, then every corruption we can inflict —
// truncation, bit flips, wrong magic/footer, planted keys, renamed
// files, stray temp litter — must be rejected WITHOUT poisoning the store
// (lenient find degrades to a miss; strict load/merge names the defect),
// plus overlap-must-agree publish/merge semantics and a SIGKILL-mid-
// publish crash-safety check (atomic write-then-rename: a dead writer
// leaves staging litter, never a half-written object).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/text_codec.hpp"
#include "store/artifact_store.hpp"
#include "test_dir.hpp"

namespace hlp {
namespace {

namespace fs = std::filesystem;
using store::ArtifactKey;
using store::ArtifactStore;

using test::fresh_dir;

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << bytes;
  ASSERT_TRUE(os.good()) << path;
}

// A small but fully-featured netlist: inputs, gates, a latch, an output —
// every construct the serializer must round-trip.
Netlist small_netlist(const std::string& name) {
  Netlist n(name);
  const NetId a = n.add_input("a");
  const NetId b = n.add_input("b");
  const NetId x = n.add_net("x");
  n.add_gate(x, {a, b}, TruthTable::and2());
  const NetId q = n.add_net("q");
  n.add_latch(q, x);
  const NetId y = n.add_net("y");
  n.add_gate(y, {q, a}, TruthTable::xor2());
  n.add_output(y);
  return n;
}

ArtifactStore::Entry make_entry(double clock = 1.5) {
  ArtifactStore::Entry e;
  e.fus.fu_of_op = {0, 1, 0};
  e.fus.kind_of_fu = {OpKind::kAdd, OpKind::kMult};
  e.fus.flipped = {0, 1, 0};
  e.refined = true;
  e.refine.fus = e.fus;
  e.refine.flips_applied = 2;
  e.refine.passes = 3;
  e.refine.cost_before = 1.25;
  e.refine.cost_after = 0.625;
  // A plan that fits the 2-input mapped netlist (the loader checks it): a
  // 1-bit data bus on input 0 and a select on input 1.
  e.plan.width = 1;
  e.plan.num_phases = 3;
  e.plan.data_input_pos = {0};
  // A name with spaces exercises the percent escaping.
  e.plan.controls.push_back({"mux sel 0", {1}, {0, 1, 1}});
  e.mapped.lut_netlist = small_netlist("mapped");
  e.mapped.num_luts = 2;
  e.mapped.depth = 2;
  e.clock_period_ns = clock;
  return e;
}

// A key shaped like FlowContext::binding_hash(): context fields with the
// SA mode among them, then the binder's, then the CDFG digest.
ArtifactKey make_key(const std::string& binder = "binder|0x1p-1|4",
                     const std::string& sa = "estimate") {
  return {"list|2x2|4|42|" + sa + "|" + binder + "|gcafe"};
}

void expect_entry_eq(const ArtifactStore::Entry& a,
                     const ArtifactStore::Entry& b) {
  EXPECT_EQ(a.fus.fu_of_op, b.fus.fu_of_op);
  EXPECT_EQ(a.fus.kind_of_fu, b.fus.kind_of_fu);
  EXPECT_EQ(a.fus.flipped, b.fus.flipped);
  EXPECT_EQ(a.refined, b.refined);
  EXPECT_EQ(a.refine.fus.fu_of_op, b.refine.fus.fu_of_op);
  EXPECT_EQ(a.refine.flips_applied, b.refine.flips_applied);
  EXPECT_EQ(a.refine.passes, b.refine.passes);
  EXPECT_EQ(a.refine.cost_before, b.refine.cost_before);
  EXPECT_EQ(a.refine.cost_after, b.refine.cost_after);
  EXPECT_EQ(a.clock_period_ns, b.clock_period_ns);
  EXPECT_EQ(a.mapped.num_luts, b.mapped.num_luts);
  EXPECT_EQ(a.mapped.depth, b.mapped.depth);
  EXPECT_EQ(a.plan.width, b.plan.width);
  EXPECT_EQ(a.plan.num_phases, b.plan.num_phases);
  EXPECT_EQ(a.plan.data_input_pos, b.plan.data_input_pos);
  ASSERT_EQ(a.plan.controls.size(), b.plan.controls.size());
  for (std::size_t i = 0; i < a.plan.controls.size(); ++i) {
    EXPECT_EQ(a.plan.controls[i].name, b.plan.controls[i].name);
    EXPECT_EQ(a.plan.controls[i].input_positions,
              b.plan.controls[i].input_positions);
    EXPECT_EQ(a.plan.controls[i].select_by_phase,
              b.plan.controls[i].select_by_phase);
  }
  const Netlist& na = a.mapped.lut_netlist;
  const Netlist& nb = b.mapped.lut_netlist;
  EXPECT_EQ(na.name(), nb.name());
  ASSERT_EQ(na.num_nets(), nb.num_nets());
  for (NetId id = 0; id < na.num_nets(); ++id) {
    EXPECT_EQ(na.net_name(id), nb.net_name(id));
    EXPECT_EQ(na.is_input(id), nb.is_input(id));
  }
  ASSERT_EQ(na.num_gates(), nb.num_gates());
  for (int g = 0; g < na.num_gates(); ++g) {
    EXPECT_EQ(na.gates()[g].out, nb.gates()[g].out);
    EXPECT_EQ(na.gates()[g].ins, nb.gates()[g].ins);
    EXPECT_EQ(na.gates()[g].tt, nb.gates()[g].tt);
  }
  ASSERT_EQ(na.num_latches(), nb.num_latches());
  for (int l = 0; l < na.num_latches(); ++l) {
    EXPECT_EQ(na.latches()[l].q, nb.latches()[l].q);
    EXPECT_EQ(na.latches()[l].d, nb.latches()[l].d);
  }
  EXPECT_EQ(na.inputs(), nb.inputs());
  EXPECT_EQ(na.outputs(), nb.outputs());
}

// The lines of `text`, without their newlines.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) out.push_back(line);
  return out;
}

// Lines of a serialize() result before its payload: the magic, the key
// and the payload count.
constexpr std::size_t kHeaderLines = 3;

// The payload lines of a serialize() result: after the header, before the
// sum and the footer.
std::vector<std::string> payload_of(const std::string& object) {
  const std::vector<std::string> lines = lines_of(object);
  return {lines.begin() + kHeaderLines, lines.end() - 2};
}

// `object` with its payload replaced by `payload` and the payload count,
// checksum and footer recomputed, so the edit gets past the checksum and
// reaches the payload parser.
std::string with_payload(const std::string& object,
                         const std::vector<std::string>& payload) {
  const std::vector<std::string> lines = lines_of(object);
  std::string body;
  for (const std::string& line : payload) body += line + '\n';
  char sum[17];
  std::snprintf(sum, sizeof sum, "%016llx",
                static_cast<unsigned long long>(fnv1a64(body)));
  const std::string count = std::to_string(payload.size());
  std::string out;
  for (std::size_t i = 0; i + 1 < kHeaderLines; ++i) out += lines[i] + '\n';
  return out + "payload " + count + '\n' + body + "sum " + sum + '\n' +
         "end hlp-artifact " + count + '\n';
}

TEST(ArtifactStoreFormat, SerializeParseRoundTripIsExact) {
  const ArtifactKey key = make_key();
  const ArtifactStore::Entry entry = make_entry();
  const std::string bytes = ArtifactStore::serialize(key, entry);
  const store::LoadedArtifact art = ArtifactStore::parse(bytes, "test");
  EXPECT_EQ(art.key, key);
  expect_entry_eq(art.entry, entry);
  // Deterministic: re-serializing the parsed entry reproduces the bytes —
  // the property publish()'s overlap-must-agree comparison rests on.
  EXPECT_EQ(ArtifactStore::serialize(art.key, art.entry), bytes);
}

// The exact bytes of the fixture object. Every `hlp-artifact v6` object
// already on disk (and the CI cache keyed `hlp-store-v6`) is read by
// today's parser, so a writer change that moves a byte is a format
// change: it bumps the version and replaces this literal with the new
// version's bytes in the same commit. The `sum` line is FNV-1a 64 of the
// payload computed outside the library, so a wrong hash cannot pin itself.
TEST(ArtifactStoreFormat, FixtureBytesArePinned) {
  const std::string pinned =
      "hlp-artifact v6\n"
      "key list|2x2|4|42|estimate|binder|0x1p-1|4|gcafe\n"
      "payload 19\n"
      "fus 3 0 1 0\n"
      "kinds 2 add mult\n"
      "flipped 3 0 1 0\n"
      "refine refined=1 flips=2 passes=3 cost_before=0x1.4p+0 "
      "cost_after=0x1.4p-1\n"
      "map luts=2 depth=2 clock=0x1.8p+0\n"
      "datapath 1 3\n"
      "datapos 1 0\n"
      "controls 1\n"
      "ctl mux%20sel%200 1 1 3 0 1 1\n"
      "netlist mapped 5 2 1 1\n"
      "net a 1\n"
      "net b 1\n"
      "net x 0\n"
      "net q 0\n"
      "net y 0\n"
      "gate 2 2 8 2 0 1\n"
      "gate 4 2 6 2 3 0\n"
      "latch 3 2\n"
      "outs 1 4\n"
      "sum db0dd0eeabc4ac18\n"
      "end hlp-artifact 19\n";
  EXPECT_EQ(ArtifactStore::serialize(make_key(), make_entry()), pinned);
}

// Seeded mutation fuzzing of the object parser. Each input is the fixture
// object with one payload token replaced by a boundary value, or one
// payload line deleted or duplicated, and its checksum recomputed so the
// edit reaches the payload parser. Every input must throw hlp::Error or
// load, and a loaded entry must re-serialize to bytes that load and
// re-serialize identically.
TEST(ArtifactStoreFormat, MutatedPayloadsThrowOrRoundTrip) {
  const std::string blob = ArtifactStore::serialize(make_key(), make_entry());
  const std::vector<std::string> payload = payload_of(blob);
  ASSERT_EQ(with_payload(blob, payload), blob);
  const char* const kValues[] = {"0",
                                 "1",
                                 "-1",
                                 "2147483647",
                                 "2147483648",
                                 "4294967296",
                                 "9223372036854775808",
                                 "18446744073709551615",
                                 "",
                                 "%zz"};
  constexpr std::uint32_t kNumValues = sizeof kValues / sizeof kValues[0];
  Rng rng(21);
  int loaded = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::string> edited = payload;
    const std::size_t at =
        rng.below(static_cast<std::uint32_t>(edited.size()));
    switch (rng.below(3)) {
      case 0: {
        std::vector<std::string> toks = split_ws(edited[at]);
        toks[rng.below(static_cast<std::uint32_t>(toks.size()))] =
            kValues[rng.below(kNumValues)];
        edited[at] = join(toks, " ");
        break;
      }
      case 1:
        edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      default:
        edited.insert(edited.begin() + static_cast<std::ptrdiff_t>(at),
                      edited[at]);
        break;
    }
    const std::string bytes = with_payload(blob, edited);
    store::LoadedArtifact art;
    try {
      art = ArtifactStore::parse(bytes, "mutant");
    } catch (const Error&) {
      continue;
    }
    ++loaded;
    const std::string again = ArtifactStore::serialize(art.key, art.entry);
    const store::LoadedArtifact back = ArtifactStore::parse(again, "again");
    EXPECT_EQ(ArtifactStore::serialize(back.key, back.entry), again) << bytes;
  }
  // Some edits are harmless (a 0 where a 0 was), so the loop also walks
  // the accepting path.
  EXPECT_GT(loaded, 0);
}

// A flip flag is 0 or 1. Any other integer, 256 included (which a cast
// to char would read as an unflipped operand), fails the parse naming the
// `flipped` line: line 6, after the three header lines and two payload
// lines.
TEST(ArtifactStoreFormat, FlipFlagsOtherThanZeroOrOneAreRejected) {
  const std::string blob = ArtifactStore::serialize(make_key(), make_entry());
  std::vector<std::string> payload = payload_of(blob);
  ASSERT_EQ(payload[2], "flipped 3 0 1 0");
  for (const std::string bad : {"2", "256", "-1"}) {
    payload[2] = "flipped 3 0 " + bad + " 0";
    try {
      ArtifactStore::parse(with_payload(blob, payload), "flags");
      ADD_FAILURE() << "flip flag " << bad << " accepted";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("artifact flags line 6"), std::string::npos) << msg;
      EXPECT_NE(msg.find("'" + bad + "'"), std::string::npos) << msg;
    }
  }
}

TEST(ArtifactStore, PublishFindRoundTripAcrossHandles) {
  const std::string root = fresh_dir("art_roundtrip");
  const ArtifactKey key = make_key();
  {
    ArtifactStore store(root);
    store.publish(key, make_entry());
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.publishes(), 1u);
  }
  ArtifactStore other(root);  // fresh handle, same store
  const auto entry = other.find(key);
  ASSERT_TRUE(entry);
  EXPECT_EQ(other.hits(), 1u);
  EXPECT_EQ(other.rejected(), 0u);
  expect_entry_eq(*entry, make_entry());
  // A different binding is simply absent: a miss, not a rejection.
  EXPECT_FALSE(other.find(make_key("other-binding")));
  EXPECT_EQ(other.misses(), 1u);
  EXPECT_EQ(other.rejected(), 0u);
}

TEST(ArtifactStore, PublishingTheSameEntryTwiceIsANoOp) {
  ArtifactStore store(fresh_dir("art_republish"));
  store.publish(make_key(), make_entry());
  store.publish(make_key(), make_entry());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.publishes(), 1u);  // the second commit was elided
}

TEST(ArtifactStore, ConflictingPublishForTheSameKeyThrows) {
  ArtifactStore store(fresh_dir("art_conflict"));
  const ArtifactKey key = make_key();
  store.publish(key, make_entry(1.5));
  try {
    store.publish(key, make_entry(2.5));  // same key, different bytes
    FAIL() << "conflicting publish did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("conflict"), std::string::npos)
        << e.what();
  }
  // The original entry survives untouched.
  const auto entry = store.find(key);
  ASSERT_TRUE(entry);
  EXPECT_EQ(entry->clock_period_ns, 1.5);
}

// --- fault injection -----------------------------------------------------

class ArtifactStoreFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fresh_dir("art_faults");
    store_ = std::make_unique<ArtifactStore>(root_);
    store_->publish(key_, make_entry());
    path_ = store_->object_path(key_);
    blob_ = read_file(path_);
  }

  // The store must reject the bytes at path_ without poisoning itself: a
  // lenient find degrades to null + a rejection count, a strict load
  // throws naming the defect, and a republish repairs the entry.
  void expect_rejected_then_repaired(const std::string& defect) {
    EXPECT_FALSE(store_->find(key_)) << defect;
    EXPECT_EQ(store_->rejected(), 1u) << defect;
    try {
      store_->load_strict(key_);
      FAIL() << "strict load of a " << defect << " artifact did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("artifact"), std::string::npos)
          << e.what();
    }
    // Publishing over the corrupt object repairs it byte-exactly.
    store_->publish(key_, make_entry());
    EXPECT_EQ(read_file(path_), blob_) << defect;
    EXPECT_TRUE(store_->find(key_)) << defect;
  }

  std::string root_, path_, blob_;
  ArtifactKey key_ = make_key();
  std::unique_ptr<ArtifactStore> store_;
};

TEST_F(ArtifactStoreFaults, TruncatedEntriesAreRejected) {
  // Cut at several depths: inside the header, the payload and the footer
  // (dropping only the final newline still kills the footer line).
  for (const std::size_t keep :
       {std::size_t{5}, blob_.size() / 4, blob_.size() / 2,
        blob_.size() - 2}) {
    write_file(path_, blob_.substr(0, keep));
    EXPECT_FALSE(store_->find(key_)) << "kept " << keep;
  }
  EXPECT_EQ(store_->rejected(), 4u);
  write_file(path_, blob_.substr(0, blob_.size() / 2));
  store_->publish(key_, make_entry());
  EXPECT_EQ(read_file(path_), blob_);
}

TEST_F(ArtifactStoreFaults, BitFlippedPayloadFailsTheChecksum) {
  std::string bytes = blob_;
  // Flip one bit of a digit in the middle of the payload.
  const std::size_t pos = bytes.size() / 2;
  bytes[pos] ^= 0x01;
  write_file(path_, bytes);
  expect_rejected_then_repaired("bit-flipped");
}

TEST_F(ArtifactStoreFaults, WrongMagicIsRejected) {
  std::string bytes = blob_;
  bytes[0] = 'X';
  write_file(path_, bytes);
  expect_rejected_then_repaired("wrong-magic");
}

TEST_F(ArtifactStoreFaults, TamperedFooterCountIsRejected) {
  // The footer is "end hlp-artifact <count>\n": bump the count.
  std::string bytes = blob_;
  const std::size_t end = bytes.rfind(" ");
  bytes.replace(end + 1, bytes.size() - end - 2, "9999");
  write_file(path_, bytes);
  expect_rejected_then_repaired("bad-footer");
}

TEST_F(ArtifactStoreFaults, KeyNamingAnotherSaModeIsRejected) {
  // The same entry under a key that names another SA mode, planted at the
  // original address: structurally valid, checksum fine — but the recorded
  // key no longer matches the request, so the hit must refuse. The mode
  // is the retired "exact", as an older store may hold it.
  write_file(path_, ArtifactStore::serialize(
                        make_key("binder|0x1p-1|4", "exact"), make_entry()));
  EXPECT_FALSE(store_->find(key_));
  EXPECT_EQ(store_->rejected(), 1u);
  try {
    store_->load_strict(key_);
    FAIL() << "a key naming another SA mode did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("key mismatch"), std::string::npos)
        << e.what();
  }
  store_->publish(key_, make_entry());
  EXPECT_EQ(read_file(path_), blob_);
  EXPECT_TRUE(store_->find(key_));
}

TEST_F(ArtifactStoreFaults, DatapathPlanMustFitItsNetlist) {
  // The lane engines index the mapped netlist's inputs by the datapath
  // plan without a bounds check, so a well-formed object whose plan does
  // not fit its 2-input mapped netlist must fail the parse, naming the
  // field, and read back from a store as a rejected miss.
  struct Defect {
    const char* field;  // what the error must name
    void (*apply)(ArtifactStore::Entry&);
  };
  const Defect defects[] = {
      {"datapath width 0",
       [](ArtifactStore::Entry& e) { e.plan.width = 0; }},
      {"datapath width 65",
       [](ArtifactStore::Entry& e) { e.plan.width = 65; }},
      {"datapath num_phases 0",
       [](ArtifactStore::Entry& e) {
         e.plan.num_phases = 0;
         e.plan.controls.front().select_by_phase.clear();
       }},
      {"datapos bus at -1",
       [](ArtifactStore::Entry& e) { e.plan.data_input_pos = {-1}; }},
      {"datapos bus at 0 of width 3",
       [](ArtifactStore::Entry& e) { e.plan.width = 3; }},
      {"datapos bus at 2",
       [](ArtifactStore::Entry& e) { e.plan.data_input_pos = {0, 2}; }},
      {"input position 7",
       [](ArtifactStore::Entry& e) {
         e.plan.controls.front().input_positions = {7};
       }},
      {"input position -1",
       [](ArtifactStore::Entry& e) {
         e.plan.controls.front().input_positions = {-1};
       }},
      {"has 33 input positions",
       [](ArtifactStore::Entry& e) {
         e.plan.controls.front().input_positions.assign(33, 1);
       }},
      {"has 1 selects",
       [](ArtifactStore::Entry& e) {
         e.plan.controls.front().select_by_phase = {0};
       }},
  };
  std::uint64_t rejected = 0;
  for (const Defect& d : defects) {
    ArtifactStore::Entry bad = make_entry();
    d.apply(bad);
    const std::string bytes = ArtifactStore::serialize(key_, bad);
    try {
      ArtifactStore::parse(bytes, "planted");
      ADD_FAILURE() << d.field << ": plan accepted";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("artifact planted"), std::string::npos) << msg;
      EXPECT_NE(msg.find(d.field), std::string::npos) << msg;
    }
    write_file(path_, bytes);
    EXPECT_FALSE(store_->find(key_)) << d.field;
    EXPECT_EQ(store_->rejected(), ++rejected) << d.field;
  }
  // The unmodified fixture fits, so none of the above was noise.
  store_->publish(key_, make_entry());
  EXPECT_TRUE(store_->find(key_));
  EXPECT_EQ(store_->rejected(), rejected);
}

TEST_F(ArtifactStoreFaults, HugeCtlCountIsRejectedNotOverrun) {
  // A checksum-consistent object whose 'ctl' line declares 2^64-3 input
  // positions. Checked as `tokens >= 4 + n`, that count wraps and the
  // loader reads past the line's tokens; it must be checked against the
  // tokens left instead, and fail naming the line.
  std::vector<std::string> payload = payload_of(blob_);
  const auto ctl =
      std::find_if(payload.begin(), payload.end(), [](const std::string& l) {
        return l.rfind("ctl ", 0) == 0;
      });
  ASSERT_NE(ctl, payload.end());
  *ctl = "ctl sel 18446744073709551613 1";
  const std::string planted = with_payload(blob_, payload);
  try {
    ArtifactStore::parse(planted, "planted");
    FAIL() << "a wrapping 'ctl' count parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'ctl' line"), std::string::npos)
        << e.what();
  }
  write_file(path_, planted);
  EXPECT_FALSE(store_->find(key_));
  EXPECT_EQ(store_->rejected(), 1u);
}

TEST_F(ArtifactStoreFaults, OlderVersionObjectsAreRejectedByVersion) {
  // Objects in each older layout planted at this key's address: they must
  // fail on their version line, not on the lines the v6 parser no longer
  // expects. v1 to v3 keyed an object by a scope, a binding and an sa line
  // where v4 to v6 have one key line; v1 also carried the settle and simd
  // tags after the sa line, v2 only the simd tag. v4's payload also held
  // the refined binding again (rfus, rkinds, rflips) and the elaborated
  // netlist before the mapped one. v5's held the mux statistics (mux,
  // muxa, muxb, muxdiff) and spelled the binding and map in records of
  // its own (flips, and positional refine, clock and map lines).
  struct Layout {
    std::string version;
    std::string tags;
  };
  const std::string key_line = "key " + encode_token(key_.binding) + "\n";
  const std::string header = "hlp-artifact v6\n" + key_line;
  ASSERT_EQ(blob_.rfind(header, 0), 0u);
  const std::string v3_tags =
      "scope pr|list|2x2|4|42|estimate|gcafe\nbinding binder|0x1p-1|4\n"
      "sa estimate\n";
  for (const Layout& old :
       {Layout{"v1", v3_tags + "settle auto\nsimd auto\n"},
        Layout{"v2", v3_tags + "simd auto\n"}, Layout{"v3", v3_tags},
        Layout{"v4", key_line}, Layout{"v5", key_line}}) {
    std::string bytes = blob_;
    bytes.replace(0, header.size(),
                  "hlp-artifact " + old.version + "\n" + old.tags);
    write_file(path_, bytes);
    // A fresh handle per layout: the helper expects exactly one rejection.
    store_ = std::make_unique<ArtifactStore>(root_);
    try {
      store_->load_strict(key_);
      FAIL() << "strict load of a " << old.version << " artifact did not "
             << "throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version '" +
                                           old.version + "'"),
                std::string::npos)
          << e.what();
    }
    expect_rejected_then_repaired(old.version);
  }
}

TEST_F(ArtifactStoreFaults, StrayTempFilesNeverBecomeEntries) {
  // A crashed writer's litter: partially-renamed / half-written temp files
  // in objects/ and staging/. None of it may count as an entry or break a
  // probe, and merge_from must skip it (only *.art files are entries).
  write_file(root_ + "/objects/0123456789abcdef.art.tmp", "half-written");
  write_file(root_ + "/objects/litter.tmp", blob_.substr(0, 40));
  write_file(root_ + "/staging/stale.tmp", "staged-but-never-renamed");
  EXPECT_EQ(store_->size(), 1u);
  ASSERT_TRUE(store_->find(key_));
  EXPECT_EQ(store_->rejected(), 0u);

  ArtifactStore other(fresh_dir("art_faults_merge"));
  EXPECT_EQ(other.merge_from(root_), 1u);
  EXPECT_EQ(other.size(), 1u);
}

// --- merge_from ----------------------------------------------------------

TEST(ArtifactStoreMerge, InsertsNewEntriesAndAgreesOnOverlap) {
  const std::string a_root = fresh_dir("art_merge_a");
  const std::string b_root = fresh_dir("art_merge_b");
  ArtifactStore a(a_root);
  ArtifactStore b(b_root);
  a.publish(make_key("shared"), make_entry());
  b.publish(make_key("shared"), make_entry());  // overlap, same bytes
  b.publish(make_key("only-b"), make_entry(2.5));
  EXPECT_EQ(a.merge_from(b_root), 1u);  // only-b inserted, shared skipped
  EXPECT_EQ(a.size(), 2u);
  const auto merged = a.find(make_key("only-b"));
  ASSERT_TRUE(merged);
  EXPECT_EQ(merged->clock_period_ns, 2.5);
  // Idempotent: everything now overlaps and agrees.
  EXPECT_EQ(a.merge_from(b_root), 0u);
}

TEST(ArtifactStoreMerge, OverlapConflictRejectsTheWholeMerge) {
  const std::string a_root = fresh_dir("art_mergec_a");
  const std::string b_root = fresh_dir("art_mergec_b");
  ArtifactStore a(a_root);
  ArtifactStore b(b_root);
  a.publish(make_key("shared"), make_entry(1.5));
  b.publish(make_key("shared"), make_entry(2.5));  // disagrees
  b.publish(make_key("only-b"), make_entry());
  EXPECT_THROW(a.merge_from(b_root), Error);
  // No partial state: the conflicting key kept a's bytes and only-b was
  // NOT inserted even though it was conflict-free.
  EXPECT_EQ(a.size(), 1u);
  const auto kept = a.find(make_key("shared"));
  ASSERT_TRUE(kept);
  EXPECT_EQ(kept->clock_period_ns, 1.5);
  EXPECT_FALSE(a.find(make_key("only-b")));
}

TEST(ArtifactStoreMerge, CorruptSourceEntryRejectsTheWholeMerge) {
  const std::string a_root = fresh_dir("art_merged_a");
  const std::string b_root = fresh_dir("art_merged_b");
  ArtifactStore a(a_root);
  ArtifactStore b(b_root);
  b.publish(make_key("good"), make_entry());
  const std::string bad = b.object_path(make_key("bad"));
  write_file(bad, ArtifactStore::serialize(make_key("bad"), make_entry())
                      .substr(0, 64));
  EXPECT_THROW(a.merge_from(b_root), Error);
  EXPECT_EQ(a.size(), 0u);  // the good entry was not inserted either
}

TEST(ArtifactStoreMerge, RenamedSourceFileIsRejected) {
  // A valid artifact under the wrong file name means its content address
  // lies — refuse rather than import under either name.
  const std::string a_root = fresh_dir("art_mergern_a");
  const std::string b_root = fresh_dir("art_mergern_b");
  ArtifactStore a(a_root);
  ArtifactStore b(b_root);
  b.publish(make_key("entry"), make_entry());
  const std::string from = b.object_path(make_key("entry"));
  write_file(b_root + "/objects/00000000deadbeef.art", read_file(from));
  try {
    a.merge_from(b_root);
    FAIL() << "renamed artifact did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("content address"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(a.size(), 0u);
}

// --- crash safety --------------------------------------------------------

TEST(ArtifactStoreCrash, SigkilledWriterNeverCorruptsTheStore) {
  // Fork a writer that publishes and deletes the same entry in a tight
  // loop, SIGKILL it at arbitrary points, and verify after every kill
  // that the store is never in a half-written state: the object is either
  // absent or bit-exact, and a rerun converges to the same bytes.
  const std::string root = fresh_dir("art_crash");
  const ArtifactKey key = make_key();
  const std::string blob = ArtifactStore::serialize(key, make_entry());

  for (int round = 0; round < 4; ++round) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: hammer publish/remove until killed. _exit on any error so
      // a child failure cannot masquerade as a parent assertion.
      try {
        ArtifactStore writer(root);
        const std::string path = writer.object_path(key);
        for (;;) {
          writer.publish(key, make_entry());
          std::remove(path.c_str());
        }
      } catch (...) {
        ::_exit(97);
      }
    }
    ::usleep(5000 + 7000 * round);  // vary the kill point across rounds
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "writer child did not die by SIGKILL: status " << status;

    ArtifactStore reader(root);
    const std::string path = reader.object_path(key);
    if (std::ifstream probe(path); probe.good()) {
      // Committed object => complete and bit-exact (rename is atomic).
      EXPECT_EQ(read_file(path), blob);
      ASSERT_TRUE(reader.find(key));
    } else {
      EXPECT_FALSE(reader.find(key));
    }
    EXPECT_EQ(reader.rejected(), 0u) << "round " << round;

    // A rerun over the crashed store converges to the exact same bytes.
    reader.publish(key, make_entry());
    EXPECT_EQ(read_file(path), blob);
  }
}

// --- hygiene: enumerate / fsck / gc --------------------------------------

void back_date(const std::string& path, std::chrono::hours by) {
  std::error_code ec;
  const fs::file_time_type t = fs::last_write_time(path, ec);
  ASSERT_FALSE(ec) << path;
  fs::last_write_time(path, t - by, ec);
  ASSERT_FALSE(ec) << path;
}

// Fork a child that exits immediately: its reaped pid names a process
// that no longer exists, which is exactly what a dead writer's staging
// directory looks like.
pid_t dead_pid() {
  const pid_t pid = ::fork();
  if (pid == 0) ::_exit(0);
  EXPECT_GT(pid, 0);
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  return pid;
}

TEST(ArtifactStoreHygiene, EnumerateListsObjectsSortedByAddress) {
  ArtifactStore store(fresh_dir("art_enum"));
  EXPECT_TRUE(store.enumerate().empty());
  store.publish(make_key("b1"), make_entry());
  store.publish(make_key("b2"), make_entry(2.5));
  const auto objects = store.enumerate();
  ASSERT_EQ(objects.size(), 2u);
  EXPECT_LT(objects[0].address, objects[1].address);
  for (const store::ObjectInfo& obj : objects) {
    EXPECT_GT(obj.bytes, 0u);
    EXPECT_GE(obj.age_seconds, 0);
    EXPECT_EQ(fs::path(obj.path).stem().string(), obj.address);
    EXPECT_TRUE(fs::exists(obj.path));
  }
}

TEST(ArtifactStoreHygiene, FsckOnAHealthyStoreIsClean) {
  ArtifactStore empty(fresh_dir("art_fsck_empty"));
  store::FsckReport report = empty.fsck(/*repair=*/false);
  EXPECT_EQ(report.scanned, 0u);
  EXPECT_TRUE(report.clean());

  ArtifactStore store(fresh_dir("art_fsck_ok"));
  store.publish(make_key("b1"), make_entry());
  store.publish(make_key("b2"), make_entry(2.5));
  report = store.fsck(/*repair=*/false);
  EXPECT_EQ(report.scanned, 2u);
  EXPECT_EQ(report.valid, 2u);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.repaired, 0u);
}

TEST(ArtifactStoreHygiene, FsckReportsAndRepairsCorruption) {
  const std::string root = fresh_dir("art_fsck_bad");
  ArtifactStore store(root);
  store.publish(make_key("good"), make_entry());
  store.publish(make_key("trunc"), make_entry(2.5));
  const std::string trunc_path = store.object_path(make_key("trunc"));
  write_file(trunc_path, read_file(trunc_path).substr(0, 64));
  // A byte-valid artifact under a lying file name (renamed/planted).
  const std::string planted = root + "/objects/00000000deadbeef.art";
  write_file(planted,
             ArtifactStore::serialize(make_key("planted"), make_entry()));

  // Without --repair: both defects named, nothing deleted.
  store::FsckReport report = store.fsck(/*repair=*/false);
  EXPECT_EQ(report.scanned, 3u);
  EXPECT_EQ(report.valid, 1u);
  ASSERT_EQ(report.rejected.size(), 2u);
  EXPECT_EQ(report.repaired, 0u);
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(fs::exists(trunc_path));
  EXPECT_TRUE(fs::exists(planted));

  // With repair: rejects removed (address-miss recomputes them later),
  // the healthy object untouched, and the next fsck is clean.
  report = store.fsck(/*repair=*/true);
  EXPECT_EQ(report.rejected.size(), 2u);
  EXPECT_EQ(report.repaired, 2u);
  EXPECT_FALSE(fs::exists(trunc_path));
  EXPECT_FALSE(fs::exists(planted));
  report = store.fsck(/*repair=*/false);
  EXPECT_EQ(report.scanned, 1u);
  EXPECT_TRUE(report.clean());
  ASSERT_TRUE(store.find(make_key("good")));
}

TEST(ArtifactStoreHygiene, FsckRepairSweepsOnlyStaleStaging) {
  const std::string root = fresh_dir("art_fsck_staging");
  ArtifactStore store(root);
  store.publish(make_key(), make_entry());

  // A dead writer's directory: pid provably gone.
  const std::string dead =
      root + "/staging/p" + std::to_string(dead_pid()) + "-0";
  fs::create_directories(dead);
  // A live writer's directory (our own pid, different handle counter).
  const std::string alive =
      root + "/staging/p" + std::to_string(::getpid()) + "-99";
  fs::create_directories(alive);
  // Unparseable litter: kept while fresh, swept once older than the
  // staleness window.
  const std::string garbage = root + "/staging/not-a-writer";
  fs::create_directories(garbage);

  store::FsckReport report = store.fsck(/*repair=*/true);
  EXPECT_EQ(report.staging_removed, 1u);
  EXPECT_FALSE(fs::exists(dead));
  EXPECT_TRUE(fs::exists(alive));
  EXPECT_TRUE(fs::exists(garbage));

  back_date(garbage, std::chrono::hours(25));
  report = store.fsck(/*repair=*/true);
  EXPECT_EQ(report.staging_removed, 1u);
  EXPECT_FALSE(fs::exists(garbage));
  EXPECT_TRUE(fs::exists(alive));
  ASSERT_TRUE(store.find(make_key()));
}

TEST(ArtifactStoreHygiene, GcDropsAgedObjects) {
  ArtifactStore store(fresh_dir("art_gc_age"));
  store.publish(make_key("fresh"), make_entry());
  store.publish(make_key("old"), make_entry(2.5));
  back_date(store.object_path(make_key("old")), std::chrono::hours(2));

  store::GcOptions opt;
  opt.max_age_seconds = 3600;
  const store::GcReport report = store.gc(opt);
  EXPECT_EQ(report.scanned, 2u);
  EXPECT_EQ(report.kept, 1u);
  EXPECT_EQ(report.dropped_aged, 1u);
  EXPECT_EQ(report.dropped_unreferenced, 0u);
  EXPECT_EQ(report.dropped_invalid, 0u);
  EXPECT_FALSE(store.find(make_key("old")));
  ASSERT_TRUE(store.find(make_key("fresh")));
}

TEST(ArtifactStoreHygiene, GcDropsObjectsAManifestNoLongerReferences) {
  ArtifactStore store(fresh_dir("art_gc_live"));
  store.publish(make_key("live"), make_entry());
  store.publish(make_key("dead"), make_entry(2.5));

  store::GcOptions opt;
  opt.live_addresses =
      std::set<std::string>{ArtifactStore::content_address(make_key("live"))};
  const store::GcReport report = store.gc(opt);
  EXPECT_EQ(report.kept, 1u);
  EXPECT_EQ(report.dropped_unreferenced, 1u);
  EXPECT_FALSE(store.find(make_key("dead")));
  ASSERT_TRUE(store.find(make_key("live")));
}

TEST(ArtifactStoreHygiene, GcDryRunReportsWithoutDeleting) {
  ArtifactStore store(fresh_dir("art_gc_dry"));
  store.publish(make_key("keep"), make_entry());
  store.publish(make_key("broken"), make_entry(2.5));
  const std::string bad = store.object_path(make_key("broken"));
  write_file(bad, read_file(bad).substr(0, 32));

  store::GcOptions opt;
  opt.dry_run = true;
  store::GcReport report = store.gc(opt);
  EXPECT_EQ(report.kept, 1u);
  EXPECT_EQ(report.dropped_invalid, 1u);
  EXPECT_TRUE(fs::exists(bad));  // preview only

  opt.dry_run = false;
  report = store.gc(opt);
  EXPECT_EQ(report.dropped_invalid, 1u);
  EXPECT_FALSE(fs::exists(bad));
  ASSERT_TRUE(store.find(make_key("keep")));
}

}  // namespace
}  // namespace hlp
