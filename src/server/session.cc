#include "server/session.h"

namespace aidb::server {

Session::Session(uint64_t id, ExecSettings base_settings)
    : id_(id), settings_(base_settings) {
  settings_.session_id = id_;
  settings_.cancel = nullptr;
  settings_.prepared = nullptr;  // filled per snapshot
}

ExecSettings Session::SnapshotSettings() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExecSettings s = settings_;
  s.prepared = &prepared_;
  return s;
}

void Session::set_dop(size_t dop) {
  std::lock_guard<std::mutex> lock(mu_);
  settings_.planner.dop = dop == 0 ? 1 : dop;
}

size_t Session::dop() const {
  std::lock_guard<std::mutex> lock(mu_);
  return settings_.planner.dop;
}

void Session::set_use_indexes(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  settings_.planner.use_indexes = on;
}

void Session::set_use_card_feedback(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  settings_.planner.use_card_feedback = on;
}

void Session::set_statement_timeout_ms(double ms) {
  std::lock_guard<std::mutex> lock(mu_);
  statement_timeout_ms_ = ms < 0.0 ? 0.0 : ms;
}

double Session::statement_timeout_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return statement_timeout_ms_;
}

std::string Session::StateName() const {
  if (closed.load(std::memory_order_relaxed)) return "closed";
  if (running.load(std::memory_order_relaxed) > 0) return "running";
  if (queued.load(std::memory_order_relaxed) > 0) return "queued";
  return "idle";
}

std::shared_ptr<Session> SessionManager::Open(const ExecSettings& base) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  auto session = std::make_shared<Session>(id, base);
  sessions_.emplace(id, session);
  return session;
}

std::shared_ptr<Session> SessionManager::Get(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

Status SessionManager::Close(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("session " + std::to_string(id));
  }
  it->second->closed.store(true, std::memory_order_relaxed);
  sessions_.erase(it);
  return Status::OK();
}

std::vector<std::shared_ptr<Session>> SessionManager::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Session>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, s] : sessions_) out.push_back(s);
  return out;
}

size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace aidb::server
