// Checkpoint robustness: the crash-safe save/load/restore path must
// round-trip exactly, refuse every corruption mode loudly (truncation,
// bit flip, version skew, bad magic), and — the acceptance criterion —
// a kill-then-restart engine restored from the checkpoint must be
// byte-identical to the uninterrupted engine at the next checkpoint
// boundary. Plus the concurrency case: periodic checkpoints racing a
// churn workload never produce a torn or divergent file.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "serve/checkpoint.hpp"
#include "serve/server.hpp"
#include "udg/instance.hpp"

namespace {

using namespace mcds::serve;
using namespace std::chrono_literals;

std::string tmp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

mcds::udg::UdgInstance base_instance(std::uint64_t seed) {
  mcds::udg::InstanceParams p;
  p.nodes = 40;
  p.side = 5.0;
  return mcds::udg::generate_largest_component_instance(p, seed);
}

/// A deterministic churn script over the instance's deployment area.
std::vector<ChurnOp> churn_script(const mcds::udg::UdgInstance& inst,
                                  std::size_t n, std::uint64_t seed) {
  mcds::sim::Rng rng(seed);
  std::vector<ChurnOp> ops;
  const std::size_t base = inst.points.size();
  for (std::size_t i = 0; i + 2 < n; ++i) {
    ChurnOp op;
    const auto pick = rng.uniform_int(base);
    const mcds::geom::Vec2 pos{rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)};
    if (rng.uniform_int(3) == 0) {
      op = {ChurnOp::Kind::kInsert, 0, pos};
    } else {
      op = {ChurnOp::Kind::kMove, static_cast<NodeId>(pick), pos};
    }
    ops.push_back(op);
  }
  // One erase/revive pair so every op kind round-trips the format.
  const auto victim = static_cast<NodeId>(base - 1);
  ops.push_back({ChurnOp::Kind::kErase, victim, {}});
  ops.push_back(
      {ChurnOp::Kind::kRevive, victim, inst.points[victim]});
  return ops;
}

CheckpointData sample_data() {
  const auto inst = base_instance(5);
  CheckpointData d;
  d.base_points = inst.points;
  mcds::dyn::DynamicCds engine(d.base_points);
  for (const ChurnOp& op : churn_script(inst, 25, 99)) {
    apply_churn_op(engine, op);
    d.journal.push_back(op);
  }
  d.epoch = engine.epoch();
  d.cds_size = engine.cds_size();
  d.cds_hash = hash_backbone(engine.cds());
  return d;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good());
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ServeCheckpoint, RoundTripsExactly) {
  const std::string path = tmp_path("ckpt_roundtrip.bin");
  const CheckpointData d = sample_data();
  save_checkpoint(path, d);
  const CheckpointData back = load_checkpoint(path);
  ASSERT_EQ(back.base_points.size(), d.base_points.size());
  for (std::size_t i = 0; i < d.base_points.size(); ++i) {
    EXPECT_EQ(back.base_points[i].x, d.base_points[i].x);
    EXPECT_EQ(back.base_points[i].y, d.base_points[i].y);
  }
  EXPECT_EQ(back.journal, d.journal);
  EXPECT_EQ(back.epoch, d.epoch);
  EXPECT_EQ(back.cds_size, d.cds_size);
  EXPECT_EQ(back.cds_hash, d.cds_hash);
  std::remove(path.c_str());
}

TEST(ServeCheckpoint, TruncatedFileFailsLoudly) {
  const std::string path = tmp_path("ckpt_trunc.bin");
  save_checkpoint(path, sample_data());
  const std::string bytes = read_file(path);
  // Cut at several depths: inside the header, and inside the payload.
  for (const std::size_t keep :
       {std::size_t{5}, std::size_t{20}, bytes.size() - 7}) {
    write_file(path, bytes.substr(0, keep));
    EXPECT_THROW(load_checkpoint(path), CheckpointError) << keep;
  }
  std::remove(path.c_str());
}

TEST(ServeCheckpoint, FlippedByteFailsChecksum) {
  const std::string path = tmp_path("ckpt_flip.bin");
  save_checkpoint(path, sample_data());
  const std::string orig = read_file(path);
  // Flip one bit in the middle of the payload (past the 24-byte
  // header): the CRC must catch it.
  std::string bytes = orig;
  bytes[24 + bytes.size() / 2] ^= 0x10;
  write_file(path, bytes);
  EXPECT_THROW(load_checkpoint(path), CheckpointError);
  // And the untouched original still loads: the corruption detection
  // is the file's, not the loader's mood.
  write_file(path, orig);
  EXPECT_NO_THROW(load_checkpoint(path));
  std::remove(path.c_str());
}

TEST(ServeCheckpoint, WrongVersionHeaderIsRefused) {
  const std::string path = tmp_path("ckpt_version.bin");
  save_checkpoint(path, sample_data());
  std::string bytes = read_file(path);
  bytes[8] = static_cast<char>(kCheckpointVersion + 1);  // version u32 LSB
  write_file(path, bytes);
  try {
    (void)load_checkpoint(path);
    FAIL() << "version skew must throw";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(ServeCheckpoint, BadMagicIsRefused) {
  const std::string path = tmp_path("ckpt_magic.bin");
  save_checkpoint(path, sample_data());
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  EXPECT_THROW(load_checkpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(ServeCheckpoint, MissingFileIsRefused) {
  EXPECT_THROW(load_checkpoint(tmp_path("ckpt_nonexistent.bin")),
               CheckpointError);
}

TEST(ServeCheckpoint, RestoreReplaysToIdenticalEngineState) {
  const CheckpointData d = sample_data();
  const auto engine = restore_engine(d);
  EXPECT_EQ(engine->epoch(), d.epoch);
  EXPECT_EQ(engine->cds_size(), d.cds_size);
  EXPECT_EQ(hash_backbone(engine->cds()), d.cds_hash);
  EXPECT_TRUE(engine->check().ok);
}

TEST(ServeCheckpoint, DivergentFingerprintIsRefused) {
  CheckpointData d = sample_data();
  d.cds_hash ^= 1;  // pretend the journal should land elsewhere
  EXPECT_THROW(restore_engine(d), CheckpointError);
}

// The acceptance criterion: kill after a checkpoint, restart from it,
// replay the rest of the workload — the restored engine's backbone is
// byte-identical to the uninterrupted engine's at the next checkpoint
// boundary (and at every point after, since the engine is
// deterministic).
TEST(ServeCheckpoint, KillThenRestartMatchesUninterruptedRun) {
  const std::string path = tmp_path("ckpt_restart.bin");
  const auto inst = base_instance(17);
  const auto ops = churn_script(inst, 60, 4242);
  const std::size_t cut = 33;  // "crash" happens here

  // Uninterrupted engine: all 60 ops straight through.
  mcds::dyn::DynamicCds uninterrupted(inst.points);
  for (const ChurnOp& op : ops) apply_churn_op(uninterrupted, op);

  // Served engine: ops[0..cut), checkpoint, *crash* (engine destroyed).
  {
    mcds::dyn::DynamicCds live(inst.points);
    CheckpointData d;
    d.base_points = inst.points;
    for (std::size_t i = 0; i < cut; ++i) {
      apply_churn_op(live, ops[i]);
      d.journal.push_back(ops[i]);
    }
    d.epoch = live.epoch();
    d.cds_size = live.cds_size();
    d.cds_hash = hash_backbone(live.cds());
    save_checkpoint(path, d);
  }

  // Restart: restore from disk, replay the remaining ops.
  const auto restored = restore_engine(load_checkpoint(path));
  for (std::size_t i = cut; i < ops.size(); ++i) {
    apply_churn_op(*restored, ops[i]);
  }
  EXPECT_EQ(restored->epoch(), uninterrupted.epoch());
  EXPECT_EQ(restored->cds(), uninterrupted.cds());  // byte-identical
  EXPECT_EQ(restored->mis(), uninterrupted.mis());
  EXPECT_EQ(restored->alive_count(), uninterrupted.alive_count());
  std::remove(path.c_str());
}

// Concurrency: periodic checkpoints racing a live churn workload. Every
// file the checkpointer produced must load (atomic rename: no torn
// states), and the final forced checkpoint restores to exactly the
// server engine's state.
TEST(ServeCheckpoint, ConcurrentCheckpointDuringChurnIsConsistent) {
  const std::string path = tmp_path("ckpt_concurrent.bin");
  const auto inst = base_instance(23);
  ServerParams p;
  p.initial_points = inst.points;
  p.checkpoint_path = path;
  p.checkpoint_every = 3ms;
  Server server(std::move(p));

  const auto ops = churn_script(inst, 80, 777);
  for (const ChurnOp& op : ops) {
    Request r;
    r.ops.push_back(op);
    r.deadline = std::chrono::steady_clock::now() + 10s;
    const Response resp = server.submit(std::move(r)).wait();
    ASSERT_EQ(resp.status, Status::kOk) << resp.error;
    // Let the checkpointer interleave with the churn.
    std::this_thread::sleep_for(200us);
    // Whatever is on disk at any instant must parse cleanly.
    if (resp.epoch % 8 == 0) {
      try {
        (void)load_checkpoint(path);
      } catch (const CheckpointError& e) {
        // Only "not written yet" is acceptable here, never corruption.
        EXPECT_NE(std::string(e.what()).find("cannot open"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  server.checkpoint_now();
  const auto restored = restore_engine(load_checkpoint(path));
  server.drain();
  EXPECT_GE(server.stats().checkpoints, 1u);
  EXPECT_EQ(server.stats().leaked(), 0u);
  ASSERT_NE(server.engine(), nullptr);
  EXPECT_EQ(restored->epoch(), server.engine()->epoch());
  EXPECT_EQ(restored->cds(), server.engine()->cds());
  std::remove(path.c_str());
}

// Several checkpoint_now() callers racing the 3 ms checkpointer during
// churn. Every save must succeed (the writers share "<path>.tmp"), every
// file must parse, the epoch each caller reads back must never go
// backwards, and the last save restores to the engine's state.
TEST(ServeCheckpoint, ConcurrentCheckpointNowCallersAreSerialized) {
  const std::string path = tmp_path("ckpt_callers.bin");
  const auto inst = base_instance(29);
  ServerParams p;
  p.initial_points = inst.points;
  p.checkpoint_path = path;
  p.checkpoint_every = 3ms;
  Server server(std::move(p));

  std::atomic<bool> churning{true};
  std::atomic<std::size_t> saves{0};
  std::atomic<std::size_t> failures{0};
  std::atomic<std::size_t> regressions{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      std::size_t last_epoch = 0;
      while (churning.load()) {
        try {
          server.checkpoint_now();
          const std::size_t epoch = load_checkpoint(path).epoch;
          if (epoch < last_epoch) ++regressions;
          last_epoch = epoch;
          ++saves;
        } catch (const std::exception&) {
          ++failures;
        }
        std::this_thread::sleep_for(100us);
      }
    });
  }
  for (const ChurnOp& op : churn_script(inst, 60, 4711)) {
    Request r;
    r.ops.push_back(op);
    r.deadline = std::chrono::steady_clock::now() + 10s;
    const Response resp = server.submit(std::move(r)).wait();
    EXPECT_EQ(resp.status, Status::kOk) << resp.error;
    std::this_thread::sleep_for(200us);
  }
  churning.store(false);
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(regressions.load(), 0u);
  EXPECT_GT(saves.load(), 0u);

  server.checkpoint_now();
  const auto restored = restore_engine(load_checkpoint(path));
  server.drain();
  EXPECT_EQ(server.stats().leaked(), 0u);
  ASSERT_NE(server.engine(), nullptr);
  EXPECT_EQ(restored->epoch(), server.engine()->epoch());
  EXPECT_EQ(restored->cds(), server.engine()->cds());
  std::remove(path.c_str());
}

}  // namespace
