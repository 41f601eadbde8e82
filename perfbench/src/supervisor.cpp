#include "supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <exception>
#include <iostream>
#include <system_error>

#include "layers.hpp"

namespace perfbench {

namespace {

void write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) _exit(3);  // parent gone: nothing left to report to
    off += static_cast<std::size_t>(n);
  }
}

/// Child side: announce each job ("S <j>"), run it with heartbeats ("P"),
/// send its record ("R <json>"), then exit without running the parent's
/// destructors.
[[noreturn]] void child_main(int fd, int first, int njobs, const JobFn& run,
                             const FailFn& failed) {
  const Heartbeat beat = [fd] { write_all(fd, "P\n"); };
  for (int j = first; j < njobs; ++j) {
    write_all(fd, "S " + std::to_string(j) + "\n");
    const double t0 = now_s();
    std::string rec;
    try {
      rec = run(j, beat);
    } catch (const std::exception& e) {
      rec = failed(j, std::string("exception: ") + e.what(), now_s() - t0);
    }
    write_all(fd, "R " + rec + "\n");
  }
  _exit(0);
}

int reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return status;
}

std::string describe(int status) {
  if (WIFSIGNALED(status))
    return "process killed by signal " + std::to_string(WTERMSIG(status));
  if (WIFEXITED(status))
    return "process exited with code " + std::to_string(WEXITSTATUS(status));
  return "process ended abnormally";
}

}  // namespace

std::vector<std::string> run_sweep(int njobs, const Deadlines& deadlines,
                                   const JobFn& run, const FailFn& failed) {
  std::vector<std::string> records;
  int next = 0;
  while (next < njobs) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
      throw std::system_error(errno, std::generic_category(), "pipe2");
    std::cout.flush();
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::system_error(errno, std::generic_category(), "fork");
    }
    if (pid == 0) {
      ::close(fds[0]);
      // Die with the supervisor, so no job outlives the benchmark.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) _exit(1);
      child_main(fds[1], next, njobs, run, failed);
    }
    ::close(fds[1]);

    int current = next;  // job the child is on (or about to start)
    double started = now_s();
    double last_beat = started;
    std::string buf;
    char chunk[65536];
    for (;;) {
      const double now = now_s();
      const double job_left = deadlines.job_s - (now - started);
      const double stall_left = deadlines.stall_s - (now - last_beat);
      const double left = std::min(job_left, stall_left);
      if (left <= 0) {
        ::kill(pid, SIGKILL);
        reap(pid);
        const std::string reason =
            job_left <= 0
                ? "deadline of " + std::to_string(deadlines.job_s) +
                      " s exceeded"
                : "no progress for " + std::to_string(deadlines.stall_s) + " s";
        records.push_back(failed(current, reason, now - started));
        next = current + 1;
        break;
      }
      pollfd pfd{fds[0], POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(std::ceil(left * 1000.0)));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) continue;  // timed out: the deadline check fires
      const ssize_t n = ::read(fds[0], chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {  // EOF: the child exited
        const int status = reap(pid);
        if (current < njobs) {
          records.push_back(failed(current, describe(status),
                                   now_s() - started));
          next = current + 1;
        } else {
          next = njobs;
        }
        break;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t eol;
      while ((eol = buf.find('\n')) != std::string::npos) {
        const std::string line = buf.substr(0, eol);
        buf.erase(0, eol + 1);
        if (line == "P") {
          last_beat = now_s();
        } else if (line.rfind("S ", 0) == 0) {
          current = std::stoi(line.substr(2));
          started = last_beat = now_s();
        } else if (line.rfind("R ", 0) == 0) {
          records.push_back(line.substr(2));
          current += 1;
          started = last_beat = now_s();
        }
      }
    }
    ::close(fds[0]);
  }
  return records;
}

}  // namespace perfbench
