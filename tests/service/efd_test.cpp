#include "service/efd.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "bmp/wire.h"
#include "io/event_loop.h"
#include "io/socket.h"
#include "service/http.h"
#include "topology/world.h"

namespace ef::service {
namespace {

using namespace std::chrono_literals;

topology::World test_world() {
  topology::WorldConfig config;
  config.num_clients = 40;
  config.num_pops = 2;
  config.seed = 7;
  return topology::World::generate(config);
}

EfdConfig shadow_config() {
  EfdConfig config;
  config.controller.enforcement = core::Enforcement::kShadow;
  return config;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  io::Fd conn = io::connect_tcp(port);
  EXPECT_TRUE(conn.valid());
  if (!conn.valid()) return {};
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
  EXPECT_TRUE(io::send_all(
      conn.get(), std::span<const std::uint8_t>(
                      reinterpret_cast<const std::uint8_t*>(request.data()),
                      request.size())));
  std::string response;
  for (;;) {
    const std::vector<std::uint8_t> chunk = io::recv_some(conn.get());
    if (chunk.empty()) break;
    response.append(chunk.begin(), chunk.end());
  }
  return response;
}

TEST(EfdService, StartsOnEphemeralPortsAndStops) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  EfdService service(pop, shadow_config());
  service.start();
  EXPECT_TRUE(service.running());
  EXPECT_NE(service.bmp_port(), 0);
  EXPECT_NE(service.sflow_port(), 0);
  EXPECT_NE(service.http_port(), 0);
  service.stop();
  EXPECT_FALSE(service.running());
  service.stop();  // idempotent
}

TEST(EfdService, StopReleasesEveryFd) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  const std::size_t before = io::open_fd_count();
  {
    EfdService service(pop, shadow_config());
    service.start();
    // Touch all three sockets so accepted conns also get cleaned up.
    io::Fd bmp = io::connect_tcp(service.bmp_port());
    ASSERT_TRUE(bmp.valid());
    const std::string status = http_get(service.http_port(), "/status");
    EXPECT_FALSE(status.empty());
    service.stop();
  }
  EXPECT_EQ(io::open_fd_count(), before);
}

TEST(EfdService, ServesStatusAndMetrics) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  EfdService service(pop, shadow_config());
  service.start();

  const std::string status = http_get(service.http_port(), "/status");
  EXPECT_NE(status.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(status.find("efd status"), std::string::npos);
  EXPECT_NE(status.find("pop: " + pop.name()), std::string::npos);

  const std::string metrics = http_get(service.http_port(), "/metrics");
  EXPECT_NE(metrics.find("efd_bmp_connections_total 0"), std::string::npos);
  EXPECT_NE(metrics.find("efd_cycles_run_total 0"), std::string::npos);
  EXPECT_NE(metrics.find("efd_http_aborted_conns_total 0"),
            std::string::npos);

  const std::string missing = http_get(service.http_port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  const std::string post = [&] {
    io::Fd conn = io::connect_tcp(service.http_port());
    const std::string request = "POST /status HTTP/1.1\r\n\r\n";
    io::send_all(conn.get(),
                 std::span<const std::uint8_t>(
                     reinterpret_cast<const std::uint8_t*>(request.data()),
                     request.size()));
    std::string response;
    for (;;) {
      const auto chunk = io::recv_some(conn.get());
      if (chunk.empty()) break;
      response.append(chunk.begin(), chunk.end());
    }
    return response;
  }();
  EXPECT_NE(post.find("405"), std::string::npos);
}

TEST(EfdService, CountsBmpTrafficFromSocket) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  EfdService service(pop, shadow_config());
  service.start();

  io::Fd conn = io::connect_tcp(service.bmp_port());
  ASSERT_TRUE(conn.valid());
  bmp::InitiationMsg init;
  init.sys_name = "pr-test";
  const std::vector<std::uint8_t> bytes = bmp::encode(init);
  ASSERT_TRUE(io::send_all(conn.get(), bytes));
  ASSERT_TRUE(service.wait_for_bmp_bytes(bytes.size(), 5000ms));

  const EfdService::IngestSnapshot snap = service.ingest();
  EXPECT_EQ(snap.bmp_connections, 1u);
  EXPECT_EQ(snap.bmp_bytes, bytes.size());
  EXPECT_EQ(snap.bmp_messages, 1u);
  EXPECT_EQ(snap.bmp_malformed, 0u);

  conn.reset();  // EOF: the daemon must register the disconnect
  EXPECT_TRUE(service.wait_for_disconnects(1, 5000ms));
}

TEST(HttpServer, ClientGoneMidResponseAbortsAndReleasesTheFd) {
  io::EventLoop loop;
  // A body far past the socket buffers, so the server is still writing
  // when the client vanishes and the EPIPE/ECONNRESET path must fire.
  HttpServer server(loop, 0, [](const std::string&) {
    HttpResponse response;
    response.body.assign(3u << 20, 'x');
    return response;
  });
  const std::size_t fds_idle = io::open_fd_count();

  // Connect with a minimal receive window (set before connect so the
  // window never scales up) and never read: the kernel buffers on both
  // sides stay far smaller than the body, so the server's write queue is
  // guaranteed non-empty when the reset arrives.
  io::Fd client(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(client.valid());
  const int tiny = 1;
  ASSERT_EQ(setsockopt(client.get(), SOL_SOCKET, SO_RCVBUF, &tiny,
                       sizeof(tiny)),
            0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(client.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string request = "GET /big HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(io::send_all(
      client.get(), std::span<const std::uint8_t>(
                        reinterpret_cast<const std::uint8_t*>(request.data()),
                        request.size())));
  for (int i = 0; i < 500 && server.requests_served() == 0; ++i) {
    loop.poll_once(10ms);
  }
  ASSERT_EQ(server.requests_served(), 1u);

  // Reset the connection (linger 0 => RST) without reading the body.
  struct linger reset {};
  reset.l_onoff = 1;
  reset.l_linger = 0;
  ASSERT_EQ(setsockopt(client.get(), SOL_SOCKET, SO_LINGER, &reset,
                       sizeof(reset)),
            0);
  client.reset();

  for (int i = 0; i < 500 && server.aborted_conns() == 0; ++i) {
    loop.poll_once(10ms);
  }
  EXPECT_EQ(server.aborted_conns(), 1u);
  // The aborted connection's fd came back while the server still runs —
  // not merely at shutdown.
  EXPECT_EQ(io::open_fd_count(), fds_idle);
}

TEST(EfdService, DropsPoisonedBmpSession) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  EfdService service(pop, shadow_config());
  service.start();

  io::Fd conn = io::connect_tcp(service.bmp_port());
  ASSERT_TRUE(conn.valid());
  const std::vector<std::uint8_t> garbage(32, 0xFF);  // bad BMP version
  ASSERT_TRUE(io::send_all(conn.get(), garbage));
  // The daemon severs the session itself — no feeder-side close here.
  EXPECT_TRUE(service.wait_for_disconnects(1, 5000ms));
}

TEST(EfdService, PoisonedSessionReconnectsCleanly) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  EfdService service(pop, shadow_config());
  service.start();

  // Establish a named session, then poison its stream.
  io::Fd first = io::connect_tcp(service.bmp_port());
  ASSERT_TRUE(first.valid());
  bmp::InitiationMsg init;
  init.sys_name = "r-poison";
  const std::vector<std::uint8_t> hello = bmp::encode(init);
  ASSERT_TRUE(io::send_all(first.get(), hello));
  ASSERT_TRUE(service.wait_for_bmp_bytes(hello.size(), 5000ms));
  const std::vector<std::uint8_t> garbage(32, 0xFF);
  ASSERT_TRUE(io::send_all(first.get(), garbage));
  ASSERT_TRUE(service.wait_for_disconnects(1, 5000ms));

  // The same router reconnects: the poisoned state must not survive the
  // drop, so the fresh stream's messages apply normally.
  io::Fd second = io::connect_tcp(service.bmp_port());
  ASSERT_TRUE(second.valid());
  ASSERT_TRUE(io::send_all(second.get(), hello));
  EXPECT_TRUE(service.wait_until(
      [](const EfdService::IngestSnapshot& snap) {
        return snap.bmp_messages >= 2 && snap.bmp_connections == 2;
      },
      5000ms));
  const EfdService::IngestSnapshot snap = service.ingest();
  EXPECT_EQ(snap.bmp_disconnects, 1u);  // the new session stayed up
  service.stop();
}

TEST(EfdService, DataplaneMetricsReportDisabledByDefault) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  EfdService service(pop, shadow_config());
  service.start();
  const std::string metrics = http_get(service.http_port(), "/metrics");
  service.stop();
  EXPECT_NE(metrics.find("efd_dataplane_enabled 0"), std::string::npos);
  EXPECT_NE(metrics.find("efd_dataplane_steps_total 0"), std::string::npos);
}

TEST(EfdService, DataplaneStepsEveryCycleWhenEnabled) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  EfdConfig config = shadow_config();
  config.real_time_cycles = true;
  config.cycle_wall_period = 5ms;
  config.dataplane.enabled = true;
  EfdService service(pop, config);
  service.start();
  EXPECT_TRUE(service.wait_until(
      [](const EfdService::IngestSnapshot& snap) {
        return snap.dataplane_steps >= 3;
      },
      5000ms));
  const std::string metrics = http_get(service.http_port(), "/metrics");
  service.stop();
  EXPECT_NE(metrics.find("efd_dataplane_enabled 1"), std::string::npos);
  // No demand feed in this test: the dataplane steps with an empty
  // matrix, so byte counters stay zero while the step counter advances.
  EXPECT_EQ(metrics.find("efd_dataplane_steps_total 0\n"), std::string::npos);
  EXPECT_NE(metrics.find("efd_dataplane_offered_bytes_total 0"),
            std::string::npos);
}

TEST(EfdService, RealTimeCyclesRunWithoutAFeed) {
  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  EfdConfig config = shadow_config();
  config.real_time_cycles = true;
  config.cycle_wall_period = 5ms;
  EfdService service(pop, config);
  service.start();
  EXPECT_TRUE(service.wait_until(
      [](const EfdService::IngestSnapshot& snap) {
        return snap.cycles_run >= 3;
      },
      5000ms));
  service.stop();
  EXPECT_GE(service.digests().size(), 3u);
}

/// The token after `prefix` on every line of `text` that starts with it,
/// up to the first of `terminators` — the metric names of a /metrics
/// body, or of the reference table's rows.
std::set<std::string> names_after(const std::string& text,
                                  const std::string& prefix,
                                  const std::string& terminators) {
  std::set<std::string> names;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::string rest = line.substr(prefix.size());
    names.insert(rest.substr(0, rest.find_first_of(terminators)));
  }
  return names;
}

// docs/OPERATIONS.md embeds the metrics reference rendered from the
// counter and gauge tables. The block must be current, and after one
// cycle a live /metrics must export exactly the names it lists (the
// efd_last_* gauges only appear once a cycle has run).
TEST(EfdService, MetricsReferenceMatchesDocsAndLiveMetrics) {
  const std::string reference = EfdService::metrics_reference();
  std::ifstream file(std::string(EF_SOURCE_DIR) + "/docs/OPERATIONS.md");
  ASSERT_TRUE(file.good());
  std::stringstream doc;
  doc << file.rdbuf();
  const std::string text = doc.str();
  const std::string begin = "<!-- metrics-reference:begin -->\n";
  const std::size_t from = text.find(begin);
  const std::size_t to = text.find("<!-- metrics-reference:end -->");
  const std::string block =
      from != std::string::npos && to != std::string::npos && from < to
          ? text.substr(from + begin.size(), to - from - begin.size())
          : "(markers missing)";
  EXPECT_EQ(block, reference)
      << "docs/OPERATIONS.md's metrics reference is stale; the block "
         "between the markers should read:\n"
      << reference;

  const topology::World world = test_world();
  topology::Pop pop(world, 0);
  EfdConfig config = shadow_config();
  config.real_time_cycles = true;
  config.cycle_wall_period = 5ms;
  EfdService service(pop, config);
  service.start();
  ASSERT_TRUE(service.wait_until(
      [](const EfdService::IngestSnapshot& snap) {
        return snap.cycles_run >= 1;
      },
      5000ms));
  const std::string response = http_get(service.http_port(), "/metrics");
  service.stop();
  const std::string body = response.substr(response.find("\r\n\r\n") + 4);

  const std::set<std::string> listed = names_after(reference, "| `", "`");
  const std::set<std::string> live = names_after(body, "", " ");
  for (const std::string& name : live) {
    EXPECT_TRUE(listed.contains(name)) << name << " is not in the reference";
  }
  for (const std::string& name : listed) {
    EXPECT_TRUE(live.contains(name)) << name << " is not on /metrics";
  }
}

}  // namespace
}  // namespace ef::service
