// Fixture: R009 — the serve layer must not own threads or pools.
namespace fixture::support {
class ThreadPool
{
  public:
    explicit ThreadPool(int) {}
};
ThreadPool& sharedPool(int);
}  // namespace fixture::support

namespace fixture::serve {

struct ExecutionPolicy
{
    static ExecutionPolicy pool(int);
};

void badPrivatePool()
{
    support::ThreadPool pool(4);  // EXPECT: R009
    (void)pool;
}

void badHeapPool()
{
    auto* pool = new support::ThreadPool(4);  // EXPECT: R009
    delete pool;
}

void goodSharedPool()
{
    (void)support::sharedPool(0);       // the sanctioned route: no finding
    (void)ExecutionPolicy::pool(0);     // pooled execution: no finding
    // bayes-lint: allow(R009): fixture shows a justified waiver
    support::ThreadPool waived(1);
    (void)waived;
}

}  // namespace fixture::serve
