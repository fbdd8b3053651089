# End-to-end smoke test of examples/snapdiff_shell: pipes a script into the
# shell that serves its own snapshot over a Unix socket, refreshes it
# locally, attaches to it through the socket under another name, refreshes
# that replica remotely, prints the local refresh's trace and stops the
# server. Every step's printed line must appear.
#
# Usage: cmake -DSHELL=<snapdiff_shell> -DSOCKET=<path> -DWORK_DIR=<dir>
#              -P shell_smoke.cmake
foreach(var SHELL SOCKET WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "shell_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

set(script "${WORK_DIR}/shell_smoke.in")
file(WRITE "${script}" "create table emp (Name STRING, Salary INT64)
insert emp 'Laura' 6
insert emp 'Bruce' 15
insert emp 'Ada' 3
create snapshot low on emp where Salary < 10
\\serve unix:${SOCKET}
refresh low
\\connect unix:${SOCKET} low rlow
refresh rlow
show rlow
\\trace
\\serve stop
quit
")

execute_process(
  COMMAND "${SHELL}"
  INPUT_FILE "${script}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc
  TIMEOUT 30)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "shell exited with ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

set(expected
  "table emp created \\(2 columns\\)"
  "snapshot low created over emp"
  "serving at unix:${SOCKET}"
  "refreshed low: "
  "attached rlow from unix:${SOCKET} \\(snapshot id 1\\)"
  "refreshed rlow over low: [^\n]*msgs=3 \\(entry=2 del=0 ctl=1\\)"
  "session [1-9][0-9]*: 3 applied, 0 reconnects, 0 resumes"
  "rlow \\(remote replica, SnapTime [0-9]+, 2 rows\\)"
  "trace: refresh low"
  "drain"
  "request"
  "execute differential"
  "apply"
  "server stopped: 1 connections")
foreach(line IN LISTS expected)
  if(NOT out MATCHES "${line}")
    message(FATAL_ERROR "missing /${line}/ in shell output:\n${out}\nstderr:\n${err}")
  endif()
endforeach()
if(out MATCHES "error")
  message(FATAL_ERROR "shell printed an error:\n${out}")
endif()
