# Runs one bench command line (the list CMD) and checks how it ended:
# exit code EXIT, stderr matching STDERR and, with QUIET, an empty
# stdout — the bench stopped before its header, so it ran nothing.
execute_process(COMMAND ${CMD} RESULT_VARIABLE code OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
list(JOIN CMD " " CMD)
if(NOT code STREQUAL EXIT)
  message(FATAL_ERROR "${CMD}: exit ${code}, expected ${EXIT}\n${err}")
endif()
if(NOT err MATCHES "${STDERR}")
  message(FATAL_ERROR "${CMD}: stderr lacks /${STDERR}/:\n${err}")
endif()
if(QUIET AND NOT out STREQUAL "")
  message(FATAL_ERROR "${CMD}: printed to stdout:\n${out}")
endif()
