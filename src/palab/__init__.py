"""palab: inclusion-based points-to analysis, Dyck/CFL reachability, and
the reductions connecting them, with cross-checking oracles.

The package re-exports nothing: import each name from the module that
defines it, e.g. `from palab.andersen import solve`, so that importing
one module loads only what that module uses."""
