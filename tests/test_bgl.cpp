// Tests for the BG/L machine model: locations, topology, torus, jobs.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "bgl/location.hpp"
#include "bgl/scheduler.hpp"
#include "bgl/topology.hpp"
#include "bgl/torus.hpp"
#include "common/error.hpp"

namespace bglpred::bgl {
namespace {

// ---- Location -----------------------------------------------------------

TEST(LocationTest, FormatsCanonicalCodes) {
  EXPECT_EQ(Location::make_rack(0).str(), "R00");
  EXPECT_EQ(Location::make_midplane(0, 1).str(), "R00-M1");
  EXPECT_EQ(Location::make_node_card(0, 1, 7).str(), "R00-M1-N07");
  EXPECT_EQ(Location::make_compute_chip(0, 1, 7, 21).str(),
            "R00-M1-N07-C21");
  EXPECT_EQ(Location::make_io_node(0, 0, 3, 2).str(), "R00-M0-N03-I02");
  EXPECT_EQ(Location::make_link_card(0, 1, 3).str(), "R00-M1-L3");
  EXPECT_EQ(Location::make_service_card(0, 0).str(), "R00-M0-S");
}

// The snprintf formats Location::append_to used before it wrote digits
// in place: the oracle for the differential test below.
std::string snprintf_location(const Location& loc) {
  char buf[32] = {};
  switch (loc.kind) {
    case LocationKind::kRack:
      std::snprintf(buf, sizeof(buf), "R%02u", loc.rack);
      break;
    case LocationKind::kMidplane:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u", loc.rack, loc.midplane);
      break;
    case LocationKind::kNodeCard:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u-N%02u", loc.rack,
                    loc.midplane, loc.node_card);
      break;
    case LocationKind::kComputeChip:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u-N%02u-C%02u", loc.rack,
                    loc.midplane, loc.node_card, loc.unit);
      break;
    case LocationKind::kIoNode:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u-N%02u-I%02u", loc.rack,
                    loc.midplane, loc.node_card, loc.unit);
      break;
    case LocationKind::kLinkCard:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u-L%u", loc.rack, loc.midplane,
                    loc.unit);
      break;
    case LocationKind::kServiceCard:
      std::snprintf(buf, sizeof(buf), "R%02u-M%u-S", loc.rack, loc.midplane);
      break;
  }
  return buf;
}

TEST(LocationTest, FormatMatchesSnprintfAcrossFieldWidths) {
  // Pinned strings first: %02u and %u widen past 2 and 1 digits.
  Location wide = Location::make_compute_chip(300, 100, 255, 100);
  EXPECT_EQ(wide.str(), "R300-M100-N255-C100");
  wide.rack = 65535;
  EXPECT_EQ(wide.str(), "R65535-M100-N255-C100");

  constexpr LocationKind kKinds[] = {
      LocationKind::kRack,        LocationKind::kMidplane,
      LocationKind::kNodeCard,    LocationKind::kComputeChip,
      LocationKind::kIoNode,      LocationKind::kLinkCard,
      LocationKind::kServiceCard,
  };
  // Both sides of 10 and 100 (one and two padding digits, and none).
  constexpr std::uint8_t kSmall[] = {0, 1, 9, 10, 11, 99, 100, 101, 255};
  std::size_t checked = 0;
  std::string out;
  for (const LocationKind kind : kKinds) {
    for (unsigned rack = 0; rack <= 300; ++rack) {
      for (const std::uint8_t midplane : kSmall) {
        for (const std::uint8_t node_card : kSmall) {
          for (const std::uint8_t unit : kSmall) {
            Location loc;
            loc.kind = kind;
            loc.rack = static_cast<std::uint16_t>(rack);
            loc.midplane = midplane;
            loc.node_card = node_card;
            loc.unit = unit;
            out = "prefix|";
            loc.append_to(out);
            ASSERT_EQ(out, "prefix|" + snprintf_location(loc))
                << to_string(kind) << " rack " << rack << " m "
                << +midplane << " n " << +node_card << " u " << +unit;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 7u * 301u * 9u * 9u * 9u);
}

TEST(LocationTest, ParseRoundTripsEveryKind) {
  const Location locs[] = {
      Location::make_rack(3),
      Location::make_midplane(3, 1),
      Location::make_node_card(3, 0, 15),
      Location::make_compute_chip(3, 1, 15, 31),
      Location::make_io_node(3, 0, 2, 3),
      Location::make_link_card(3, 1, 2),
      Location::make_service_card(3, 1),
  };
  for (const Location& loc : locs) {
    EXPECT_EQ(parse_location(loc.str()), loc) << loc.str();
  }
}

TEST(LocationTest, ParseRejectsMalformedCodes) {
  EXPECT_THROW(parse_location(""), ParseError);
  EXPECT_THROW(parse_location("X00"), ParseError);
  EXPECT_THROW(parse_location("R00-"), ParseError);
  EXPECT_THROW(parse_location("R00-M"), ParseError);
  EXPECT_THROW(parse_location("R00-M0-N01-C02-garbage"), ParseError);
  EXPECT_THROW(parse_location("R00-M0-Q1"), ParseError);
}

TEST(LocationTest, ContainmentHierarchy) {
  const Location rack = Location::make_rack(0);
  const Location mid = Location::make_midplane(0, 1);
  const Location card = Location::make_node_card(0, 1, 4);
  const Location chip = Location::make_compute_chip(0, 1, 4, 9);
  EXPECT_TRUE(rack.contains(chip));
  EXPECT_TRUE(mid.contains(chip));
  EXPECT_TRUE(card.contains(chip));
  EXPECT_FALSE(Location::make_midplane(0, 0).contains(chip));
  EXPECT_FALSE(Location::make_node_card(0, 1, 5).contains(chip));
  EXPECT_FALSE(chip.contains(card));
  EXPECT_TRUE(chip.contains(chip));
}

TEST(LocationTest, ParentAccessors) {
  const Location chip = Location::make_compute_chip(2, 1, 4, 9);
  EXPECT_EQ(chip.parent_midplane(), Location::make_midplane(2, 1));
  EXPECT_EQ(chip.parent_node_card(), Location::make_node_card(2, 1, 4));
  EXPECT_THROW(Location::make_rack(0).parent_midplane(), InvalidArgument);
  EXPECT_THROW(Location::make_midplane(0, 0).parent_node_card(),
               InvalidArgument);
}

TEST(LocationTest, OrderingIsDeterministic) {
  std::set<Location> set;
  set.insert(Location::make_compute_chip(0, 0, 0, 1));
  set.insert(Location::make_compute_chip(0, 0, 0, 0));
  set.insert(Location::make_midplane(0, 0));
  EXPECT_EQ(set.size(), 3u);
}

// ---- Topology ------------------------------------------------------------

TEST(TopologyTest, AnlInventoryMatchesPaper) {
  const MachineConfig cfg = MachineConfig::anl();
  EXPECT_EQ(cfg.total_compute_chips(), 1024u);  // 1024 compute nodes
  EXPECT_EQ(cfg.total_io_nodes(), 32u);         // 32 I/O nodes
  EXPECT_EQ(cfg.total_midplanes(), 2u);
  EXPECT_EQ(cfg.total_node_cards(), 32u);
}

TEST(TopologyTest, SdscInventoryMatchesPaper) {
  const MachineConfig cfg = MachineConfig::sdsc();
  EXPECT_EQ(cfg.total_compute_chips(), 1024u);  // 1024 compute nodes
  EXPECT_EQ(cfg.total_io_nodes(), 128u);        // I/O-rich: 128 I/O nodes
}

TEST(TopologyTest, EnumerationsMatchCounts) {
  const Topology topo(MachineConfig::anl());
  EXPECT_EQ(topo.compute_chips().size(), 1024u);
  EXPECT_EQ(topo.io_nodes().size(), 32u);
  EXPECT_EQ(topo.node_cards().size(), 32u);
  EXPECT_EQ(topo.midplanes().size(), 2u);
  EXPECT_EQ(topo.link_cards().size(), 8u);
}

TEST(TopologyTest, ChipsAreUnique) {
  const Topology topo(MachineConfig::anl());
  const auto chips = topo.compute_chips();
  const std::set<Location> unique(chips.begin(), chips.end());
  EXPECT_EQ(unique.size(), chips.size());
}

TEST(TopologyTest, ChipAtInvertsScanOrder) {
  const Topology topo(MachineConfig::anl());
  const auto chips = topo.compute_chips();
  for (std::uint32_t i = 0; i < chips.size(); i += 97) {
    EXPECT_EQ(topo.compute_chip_at(i), chips[i]);
  }
  EXPECT_THROW(topo.compute_chip_at(1024), InvalidArgument);
}

TEST(TopologyTest, IoNodeForChipStaysOnNodeCard) {
  const Topology topo(MachineConfig::sdsc());
  const Location chip = Location::make_compute_chip(0, 1, 6, 17);
  const Location io = topo.io_node_for(chip);
  EXPECT_EQ(io.kind, LocationKind::kIoNode);
  EXPECT_EQ(io.midplane, chip.midplane);
  EXPECT_EQ(io.node_card, chip.node_card);
}

TEST(TopologyTest, RejectsDegenerateConfig) {
  MachineConfig cfg;
  cfg.racks = 0;
  EXPECT_THROW(Topology{cfg}, InvalidArgument);
}

// ---- Torus -----------------------------------------------------------------

TEST(TorusTest, FullMidplaneIs8x8x8) {
  const Topology topo(MachineConfig::anl());
  const TorusMap torus(topo);
  const auto dims = torus.dims();
  EXPECT_EQ(dims[0], 8);
  EXPECT_EQ(dims[1], 8);
  EXPECT_EQ(dims[2], 16);  // two midplanes stacked along Z
}

TEST(TorusTest, CoordRoundTrip) {
  const Topology topo(MachineConfig::anl());
  const TorusMap torus(topo);
  for (std::uint32_t i = 0; i < 1024; i += 31) {
    const Location chip = topo.compute_chip_at(i);
    EXPECT_EQ(torus.chip_at(torus.coord_of(chip)), chip);
  }
}

TEST(TorusTest, NeighborsAreDistanceOne) {
  const Topology topo(MachineConfig::anl());
  const TorusMap torus(topo);
  const Location chip = Location::make_compute_chip(0, 0, 3, 12);
  for (const TorusCoord& n : torus.neighbors(torus.coord_of(chip))) {
    EXPECT_EQ(torus.distance(chip, torus.chip_at(n)), 1);
  }
}

TEST(TorusTest, DistanceWrapsAround) {
  const Topology topo(MachineConfig::anl());
  const TorusMap torus(topo);
  const Location a = torus.chip_at({0, 0, 0});
  const Location b = torus.chip_at({7, 0, 0});
  EXPECT_EQ(torus.distance(a, b), 1);  // wraparound along X
}

TEST(TorusTest, LineXStaysOnRow) {
  const Topology topo(MachineConfig::anl());
  const TorusMap torus(topo);
  const Location origin = torus.chip_at({5, 2, 9});
  const auto line = torus.line_x(origin, 4);
  ASSERT_EQ(line.size(), 4u);
  const TorusCoord o = torus.coord_of(origin);
  for (const Location& loc : line) {
    const TorusCoord c = torus.coord_of(loc);
    EXPECT_EQ(c.y, o.y);
    EXPECT_EQ(c.z, o.z);
  }
}

// ---- Job trace --------------------------------------------------------------

TEST(JobTraceTest, JobsRespectSpanAndMidplane) {
  const Topology topo(MachineConfig::anl());
  Rng rng(1);
  const TimeSpan span{0, 30 * kDay};
  const JobTrace trace =
      JobTrace::generate(topo, span, WorkloadParams{}, rng);
  EXPECT_GT(trace.size(), 0u);
  for (const JobRecord& job : trace.jobs()) {
    EXPECT_GE(job.span.begin, span.begin);
    EXPECT_LE(job.span.end, span.end);
    EXPECT_EQ(job.partition.kind, LocationKind::kMidplane);
    EXPECT_NE(job.id, kNoJob);
  }
}

TEST(JobTraceTest, JobsOnSameMidplaneDoNotOverlap) {
  const Topology topo(MachineConfig::anl());
  Rng rng(2);
  const JobTrace trace = JobTrace::generate(topo, TimeSpan{0, 60 * kDay},
                                            WorkloadParams{}, rng);
  std::map<Location, TimePoint> last_end;
  for (const JobRecord& job : trace.jobs()) {
    auto [it, inserted] = last_end.try_emplace(job.partition, job.span.end);
    if (!inserted) {
      EXPECT_GE(job.span.begin, it->second);
      it->second = job.span.end;
    }
  }
}

TEST(JobTraceTest, LookupFindsRunningJob) {
  const Topology topo(MachineConfig::anl());
  Rng rng(3);
  const JobTrace trace = JobTrace::generate(topo, TimeSpan{0, 30 * kDay},
                                            WorkloadParams{}, rng);
  const JobRecord& job = trace.jobs().front();
  const Location chip = Location::make_compute_chip(
      job.partition.rack, job.partition.midplane, 0, 0);
  EXPECT_EQ(trace.job_at(chip, job.span.begin), job.id);
  EXPECT_EQ(trace.job_at(chip, job.span.end - 1), job.id);
}

TEST(JobTraceTest, InfrastructureUnitsReportNoJob) {
  const Topology topo(MachineConfig::anl());
  Rng rng(4);
  const JobTrace trace = JobTrace::generate(topo, TimeSpan{0, 10 * kDay},
                                            WorkloadParams{}, rng);
  EXPECT_EQ(trace.job_at(Location::make_link_card(0, 0, 1), 5 * kDay),
            kNoJob);
  EXPECT_EQ(trace.job_at(Location::make_service_card(0, 0), 5 * kDay),
            kNoJob);
}

TEST(JobTraceTest, IdleGapsYieldNoJob) {
  const Topology topo(MachineConfig::anl());
  Rng rng(5);
  const JobTrace trace = JobTrace::generate(topo, TimeSpan{0, 30 * kDay},
                                            WorkloadParams{}, rng);
  // Find two consecutive jobs on one midplane with a gap and probe it.
  std::map<Location, std::vector<const JobRecord*>> by_mid;
  for (const JobRecord& job : trace.jobs()) {
    by_mid[job.partition].push_back(&job);
  }
  bool probed = false;
  for (const auto& [mid, jobs] : by_mid) {
    for (std::size_t i = 0; i + 1 < jobs.size(); ++i) {
      if (jobs[i + 1]->span.begin > jobs[i]->span.end + 1) {
        const Location chip =
            Location::make_compute_chip(mid.rack, mid.midplane, 0, 0);
        EXPECT_EQ(trace.job_at(chip, jobs[i]->span.end), kNoJob);
        probed = true;
        break;
      }
    }
    if (probed) {
      break;
    }
  }
  EXPECT_TRUE(probed);
}

}  // namespace
}  // namespace bglpred::bgl
