"""Rule families: determinism (DET), kernel discipline (KRN), numeric
safety (NUM), API hygiene (API), observability (OBS), performance (PERF)
and reliability (REL).  Importing a module registers its rules with
:mod:`repro.statcheck.core`."""
