#include "solvers/config.hpp"

#include "base/exception.hpp"

namespace vbatch::solvers {

template <typename T>
SolverPtr<T> make_solver(const Config& config) {
    if (config.method != "idr") {
        throw BadParameter("unknown solver method '" + config.method +
                           "' (the only method is 'idr')");
    }
    return std::make_unique<Solver<T>>(config.idr_options());
}

template SolverPtr<float> make_solver<float>(const Config&);
template SolverPtr<double> make_solver<double>(const Config&);

}  // namespace vbatch::solvers
