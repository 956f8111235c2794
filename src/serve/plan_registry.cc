#include "serve/plan_registry.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>

#include "core/plan_io.h"
#include "table/csv.h"

namespace featlib {
namespace serve {

Status PlanRegistry::AddPlan(const std::string& name,
                             const std::string& plan_path,
                             const std::string& relevant_csv_path) {
  if (name.empty()) return Status::InvalidArgument("empty plan name");
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(name) > 0) {
    return Status::InvalidArgument("duplicate plan name: " + name);
  }
  Entry entry;
  entry.plan_path = plan_path;
  entry.relevant_csv_path = relevant_csv_path;
  entries_.emplace(name, std::move(entry));
  return Status::OK();
}

Status PlanRegistry::DiscoverPlans(const std::string& dir, size_t* num_found) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IOError("cannot open plan directory " + dir);
  }
  std::vector<std::string> names;
  constexpr const char* kPlanSuffix = ".sql";
  while (struct dirent* ent = ::readdir(d)) {
    const std::string file = ent->d_name;
    if (file.size() <= 4 || file.substr(file.size() - 4) != kPlanSuffix) {
      continue;
    }
    const std::string name = file.substr(0, file.size() - 4);
    // A plan needs its relevant table beside it; skip unpaired files.
    struct stat st;
    const std::string relevant = dir + "/" + name + ".relevant.csv";
    if (::stat(relevant.c_str(), &st) != 0) continue;
    names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  size_t found = 0;
  for (const std::string& name : names) {
    Status st = AddPlan(name, dir + "/" + name + ".sql",
                        dir + "/" + name + ".relevant.csv");
    if (st.ok()) ++found;
  }
  if (num_found != nullptr) *num_found = found;
  return Status::OK();
}

Result<std::shared_ptr<const FittedAugmenter>> PlanRegistry::Acquire(
    const std::string& name) {
  std::string plan_path;
  std::string relevant_path;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("unknown plan: " + name);
    }
    // Wait out a concurrent load of the same plan rather than duplicating
    // the compile; the loader wakes every waiter on completion or failure.
    load_cv_.wait(lock, [&] { return !it->second.loading; });
    if (it->second.handle != nullptr) {
      it->second.last_used = ++use_tick_;
      return it->second.handle;
    }
    it->second.loading = true;
    plan_path = it->second.plan_path;
    relevant_path = it->second.relevant_csv_path;
  }

  // Load + compile outside the lock: a slow plan never blocks hits on
  // other plans. Exactly one thread is here per (plan, residency episode).
  // A failed load clears `loading` so the next Acquire retries (transient
  // IO errors should not poison the plan forever).
  auto fail = [&](const Status& status)
      -> Result<std::shared_ptr<const FittedAugmenter>> {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.at(name).loading = false;
    load_cv_.notify_all();
    return status;
  };

  auto relevant = ReadCsv(relevant_path);
  if (!relevant.ok()) {
    return fail(Status(relevant.status().code(),
                       "loading relevant table " + relevant_path + ": " +
                           relevant.status().message()));
  }
  auto fitted = LoadFittedAugmenter(plan_path, relevant.value());
  if (!fitted.ok()) {
    return fail(Status(fitted.status().code(),
                       "loading plan " + plan_path + ": " +
                           fitted.status().message()));
  }
  const size_t warm_bytes = fitted.value()->SizeBytes();
  std::shared_ptr<const FittedAugmenter> handle(std::move(fitted).ValueOrDie());

  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_.at(name);
  entry.loading = false;
  entry.handle = handle;
  entry.warm_bytes = warm_bytes;
  entry.last_used = ++use_tick_;
  warm_bytes_ += warm_bytes;
  ++num_loads_;
  EvictForLocked(name);
  load_cv_.notify_all();
  return handle;
}

void PlanRegistry::EvictForLocked(const std::string& keep) {
  if (options_.warm_cap_bytes == 0) return;
  while (warm_bytes_ > options_.warm_cap_bytes) {
    // Least-recently-acquired resident other than the protected one.
    Entry* victim = nullptr;
    for (auto& [name, entry] : entries_) {
      if (entry.handle == nullptr || name == keep) continue;
      if (victim == nullptr || entry.last_used < victim->last_used) {
        victim = &entry;
      }
    }
    if (victim == nullptr) break;  // only the protected plan is resident
    warm_bytes_ -= victim->warm_bytes;
    victim->warm_bytes = 0;
    // Dropping the reference is the whole eviction: in-flight holders of
    // this shared_ptr keep the handle alive until they finish.
    victim->handle.reset();
    ++num_evictions_;
  }
}

std::vector<PlanInfo> PlanRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PlanInfo> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    PlanInfo info;
    info.name = name;
    info.loaded = entry.handle != nullptr;
    info.warm_bytes = entry.warm_bytes;
    out.push_back(std::move(info));
  }
  std::sort(out.begin(), out.end(),
            [](const PlanInfo& a, const PlanInfo& b) { return a.name < b.name; });
  return out;
}

bool PlanRegistry::IsResident(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.handle != nullptr;
}

size_t PlanRegistry::warm_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return warm_bytes_;
}

size_t PlanRegistry::num_loads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_loads_;
}

size_t PlanRegistry::num_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return num_evictions_;
}

}  // namespace serve
}  // namespace featlib
